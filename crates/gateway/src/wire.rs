//! The JSON text layer under [`protocol`](crate::protocol): one typed
//! writer and one pull reader, no value tree in between.
//!
//! Writing appends to a caller-owned line: integers as digits from a
//! stack buffer, floats in the shortest form that parses back to the
//! same bits — `f32` cells by [`float`]'s Ryū writer, byte for byte
//! what `{:?}` spells but without the `fmt` machinery. Reading is one
//! forward pass of a [`Reader`]: a struct walks its object once,
//! decodes each key it knows straight into the typed value (an array
//! cell by cell into the `Vec` that will hold it; an `f32` cell through
//! [`float`]'s exact fast path before `str::parse`) and passes over the
//! rest with a validating skip. So keys come in any order, unknown keys
//! are skipped, and no object may repeat a key. One thing is read
//! before it is known how: a tag, which [`Reader::tag`] looks ahead for
//! — free when it comes first, where the writer puts it.

use std::fmt::Write as _;

mod float;

/// A decode result; the message is what
/// [`GatewayError::Protocol`](crate::GatewayError::Protocol) carries.
pub(crate) type Res<T> = Result<T, String>;

/// Deepest `[` / `{` nesting a line may have. Skipping recurses and the
/// input is an untrusted TCP line: unbounded, a few hundred thousand
/// `[` would overflow the handler thread's stack.
const DEPTH_LIMIT: usize = 128;

/// Most keys an object may have — three times what the widest message
/// has. What bounds the cost of holding every key to appear once.
const KEY_LIMIT: usize = 64;

pub(crate) fn bad<T>(message: &str) -> Res<T> {
    Err(message.to_string())
}

/// A value with one spelling on the wire.
pub(crate) trait Wire: Sized {
    /// Appends the value's JSON text to `out`.
    fn put(&self, out: &mut String);
    /// Reads the value at the cursor.
    fn get(r: &mut Reader<'_>) -> Res<Self>;
    /// Appends `[item, item, …]`.
    fn put_seq(items: &[Self], out: &mut String) {
        // An element and its separator take at least two bytes.
        out.reserve(2 * items.len() + 2);
        out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.put(out);
        }
        out.push(']');
    }
}

/// A struct whose fields are object fields: an object of its own
/// (through [`Wire`]), or flattened into a tagged message beside the
/// tags, which are unknown keys to it.
pub(crate) trait Record: Sized {
    fn put_fields(&self, out: &mut String);
    fn get_fields(r: &mut Reader<'_>) -> Res<Self>;
}

impl<T: Record> Wire for T {
    fn put(&self, out: &mut String) {
        out.push('{');
        self.put_fields(out);
        out.push('}');
    }
    fn get(r: &mut Reader<'_>) -> Res<Self> {
        T::get_fields(r)
    }
}

/// A described field's key: `"key": name`, or `name` for both.
macro_rules! key_of {
    ($key:literal $field:ident) => {
        $key
    };
    ($field:ident) => {
        stringify!($field)
    };
}

/// Declares one `Option` local per listed field and fills them from
/// the object at the cursor.
macro_rules! read_fields {
    ($r:expr; $($($key:literal:)? $field:ident),*) => {
        $(let mut $field = None;)*
        $r.object(|r, key| match key {
            $($crate::wire::key_of!($($key)? $field) => $crate::wire::set(&mut $field, key, r),)*
            _ => r.skip(),
        })?;
    };
}

/// Describes wire structs once and derives both directions, so a field
/// cannot be written and not read. Every listed field is required
/// (`Option` fields travel as `null`); `=> check` holds what was read
/// to one more condition.
macro_rules! record {
    ($($ty:ident { $($($key:literal:)? $field:ident),* $(,)? } $(=> $check:expr)?)*) => {$(
        impl $crate::wire::Record for $ty {
            fn put_fields(&self, out: &mut String) {
                $($crate::wire::field(out, $crate::wire::key_of!($($key)? $field), &self.$field);)*
            }
            fn get_fields(r: &mut $crate::wire::Reader<'_>) -> $crate::wire::Res<Self> {
                $crate::wire::read_fields!(r; $($($key:)? $field),*);
                let value = $ty {
                    $($field: $crate::wire::need($field, $crate::wire::key_of!($($key)? $field))?,)*
                };
                $($check(&value)?;)?
                Ok(value)
            }
        }
    )*};
}
pub(crate) use {key_of, read_fields, record};

/// Fills a field's slot, or says which field would not read.
pub(crate) fn set_to<T>(slot: &mut Option<T>, key: &str, value: Res<T>) -> Res<()> {
    *slot = Some(value.map_err(|e| format!("field {key:?}: {e}"))?);
    Ok(())
}

pub(crate) fn set<T: Wire>(slot: &mut Option<T>, key: &str, r: &mut Reader<'_>) -> Res<()> {
    set_to(slot, key, T::get(r))
}

/// A field that must have been present (an `Option` one as `null`).
pub(crate) fn need<T>(slot: Option<T>, key: &str) -> Res<T> {
    slot.ok_or_else(|| format!("missing field {key:?}"))
}

/// Writes `"key":` into the object `out` ends in, and hands `out` back
/// for the value. Only a just-opened object ends in `{`.
pub(crate) fn key<'a>(out: &'a mut String, key: &str) -> &'a mut String {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out
}

pub(crate) fn field<T: Wire>(out: &mut String, name: &str, value: &T) {
    value.put(key(out, name));
}

pub(crate) fn put_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => write!(out, "\\u{:04x}", u32::from(c)).expect("writing to a String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn put_int(negative: bool, mut magnitude: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (magnitude % 10) as u8;
        magnitude /= 10;
        if magnitude == 0 {
            break;
        }
    }
    if negative {
        out.push('-');
    }
    // A cell is a digit or three: byte pushes beat a `memcpy` call.
    digits[at..].iter().for_each(|&d| out.push(char::from(d)));
}

/// An `f64` in the shortest decimal that parses back to the same bits
/// (`-0.0` keeps its sign, extreme magnitudes use an exponent): `{:?}`,
/// valid JSON when finite. JSON has no NaN or infinity: NaN travels as
/// `null`, which no numeric field accepts. An `f64` is a scale or a
/// stats ratio, a few a line; `f32` cells, thousands a line, are spelled
/// the same way at their width by [`float::put_f32s`] instead, without
/// the `fmt` machinery.
fn put_float(v: f64, finite: bool, out: &mut String) {
    if finite {
        write!(out, "{v:?}").expect("writing to a String");
    } else {
        out.push_str("null");
    }
}

/// A cursor over one line. What it passes it validates, typed or
/// skipped, so a reader that reaches the end has seen well-formed JSON.
#[derive(Clone, Copy)]
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

/// Reads the one object that is all of `line` with `read`.
pub(crate) fn read_line<T>(line: &str, read: impl FnOnce(&mut Reader<'_>) -> Res<T>) -> Res<T> {
    let mut r = Reader {
        text: line,
        pos: 0,
        depth: 0,
    };
    let value = if r.peek() == Some(b'{') {
        Some(read(&mut r)?)
    } else {
        // Not ours, but say first what is wrong with it as JSON: a
        // line of a million `[` is a nesting bomb, not a non-object.
        r.skip()?;
        None
    };
    if r.peek().is_some() {
        return Err(r.syntax("trailing characters"));
    }
    value.ok_or_else(|| "not a JSON object".to_string())
}

impl<'a> Reader<'a> {
    /// The next byte that is not whitespace; the cursor moves to it.
    /// (The scan runs on a local: a store to `self.pos` could alias the
    /// text for all the optimizer knows, and would be made per byte.)
    #[inline(always)]
    fn peek(&mut self) -> Option<u8> {
        let (bytes, mut at) = (self.text.as_bytes(), self.pos);
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(at) {
            at += 1;
        }
        self.pos = at;
        bytes.get(at).copied()
    }

    #[cold]
    fn syntax(&self, what: &str) -> String {
        format!("invalid JSON: {what} at byte {}", self.pos)
    }

    /// Bytes of the line not yet read: no value still to come can hold
    /// more cells than half of this.
    pub(crate) fn remaining(&self) -> usize {
        self.text.len() - self.pos
    }

    /// Takes `word` if the cursor is at it.
    fn take(&mut self, word: &str) -> bool {
        self.peek();
        let at = self.text[self.pos..].starts_with(word);
        self.pos += if at { word.len() } else { 0 };
        at
    }

    /// Passes one value of any type.
    pub(crate) fn skip(&mut self) -> Res<()> {
        match self.peek() {
            Some(b'"') => self.string(None),
            Some(b'{') => self.object(|r, _| r.skip()),
            Some(b'[') => self.array(Self::skip),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                let token = self.number("")?;
                token.parse::<f64>().map(drop).map_err(|_| {
                    self.pos = start;
                    self.syntax("invalid number")
                })
            }
            _ if self.take("null") || self.take("true") || self.take("false") => Ok(()),
            Some(_) => Err(self.syntax("unexpected character")),
            None => Err(self.syntax("unexpected end of input")),
        }
    }

    /// Passes one number token: the longest run of `0-9 - + . e E`,
    /// which its typed parse then holds to a number's grammar —
    /// `str::parse`'s, JSON's plus `1.` and `-.5`; the first byte rules
    /// out `inf`, `nan` and `+1`. Anything else is `wrong_type`.
    #[inline(always)]
    fn number(&mut self, wrong_type: &str) -> Res<&'a str> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return bad(wrong_type);
        }
        let rest = &self.text[self.pos..];
        let len = rest
            .bytes()
            .position(|b| !in_number(b))
            .unwrap_or(rest.len());
        self.pos += len;
        Ok(&rest[..len])
    }

    /// Passes one string, checking its escapes; with `out`, decodes it.
    fn string(&mut self, mut out: Option<&mut String>) -> Res<()> {
        if self.peek() != Some(b'"') {
            return bad("not a string");
        }
        loop {
            // The cursor is on the opening quote or on an escape's
            // last byte: the next plain run starts after it.
            let run = self.pos + 1;
            let Some(len) = self.text[run..].find(['"', '\\']) else {
                return Err(self.syntax("unterminated string"));
            };
            if let Some(out) = out.as_deref_mut() {
                out.push_str(&self.text[run..run + len]);
            }
            self.pos = run + len + 1;
            if self.text.as_bytes()[run + len] == b'"' {
                return Ok(());
            }
            let c = match self.text.as_bytes().get(self.pos) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{0008}',
                Some(b'f') => '\u{000c}',
                Some(b'u') => self.unicode()?,
                _ => return Err(self.syntax("invalid escape")),
            };
            if let Some(out) = out.as_deref_mut() {
                out.push(c);
            }
        }
    }

    /// The four hex digits after the cursor, which moves to the last.
    fn hex4(&mut self) -> Res<u32> {
        let hex = self.text.get(self.pos + 1..self.pos + 5);
        let code = hex
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.syntax("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// The character of a `\u` escape (cursor on the `u`). A high
    /// surrogate takes a following `\u` low surrogate with it — how
    /// ASCII-escaping encoders (Python's `ensure_ascii`, Jackson) send
    /// astral characters; an unpaired half becomes U+FFFD.
    fn unicode(&mut self) -> Res<char> {
        let code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.text[self.pos + 1..].starts_with("\\u") {
            let rewind = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                let astral = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(astral).unwrap_or('\u{fffd}'));
            }
            // Not a low half: it is decoded on its own next.
            self.pos = rewind;
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    /// Enters `[` or `{`; `false` if it closes at once.
    fn open(&mut self, open: u8, close: u8, what: &str) -> Res<bool> {
        if self.peek() != Some(open) {
            return Err(format!("not {what}"));
        }
        if self.depth >= DEPTH_LIMIT {
            return Err(self.syntax("recursion limit exceeded"));
        }
        self.pos += 1;
        self.depth += 1;
        if self.peek() == Some(close) {
            return self.more(close);
        }
        Ok(true)
    }

    /// After an element: `true` past a `,`, `false` past `close`.
    #[inline(always)]
    fn more(&mut self, close: u8) -> Res<bool> {
        let more = match self.peek() {
            Some(b',') => true,
            Some(b) if b == close => false,
            _ => return Err(self.syntax(&format!("expected ',' or {:?}", close as char))),
        };
        self.pos += 1;
        self.depth -= usize::from(!more);
        Ok(more)
    }

    /// Walks `[v, v, …]`; `each` reads one element at the cursor.
    #[inline(always)]
    pub(crate) fn array(&mut self, mut each: impl FnMut(&mut Self) -> Res<()>) -> Res<()> {
        let mut more = self.open(b'[', b']', "an array")?;
        while more {
            each(self)?;
            more = self.more(b']')?;
        }
        Ok(())
    }

    /// The next key of the object the cursor is in, up to its `:` —
    /// as written: a key spelled with escapes is nobody's key.
    fn key(&mut self) -> Res<&'a str> {
        if self.peek() != Some(b'"') {
            return Err(self.syntax("expected a key"));
        }
        let start = self.pos + 1;
        self.string(None)?;
        let key = &self.text[start..self.pos - 1];
        if self.peek() != Some(b':') {
            return Err(self.syntax("expected ':'"));
        }
        self.pos += 1;
        Ok(key)
    }

    /// Walks `{"k": v, …}`; `each` is given a key and reads its value.
    /// A key may appear once, whoever owns it.
    pub(crate) fn object(&mut self, mut each: impl FnMut(&mut Self, &str) -> Res<()>) -> Res<()> {
        let mut keys = Vec::new();
        let mut more = self.open(b'{', b'}', "a JSON object")?;
        while more {
            let key = self.key()?;
            if keys.contains(&key) {
                return Err(format!("duplicate field {key:?}"));
            }
            if keys.len() == KEY_LIMIT {
                return bad("an object has more than 64 keys");
            }
            keys.push(key);
            each(self, key)?;
            more = self.more(b'}')?;
        }
        Ok(())
    }

    /// The value of `key` in the object at the cursor, read ahead
    /// without moving the cursor: a tag that decides how the object is
    /// read. What precedes it is passed twice, so the writer puts tags
    /// first.
    pub(crate) fn tag<T: Wire>(&self, key: &str) -> Res<T> {
        let mut ahead = *self;
        let mut more = ahead.open(b'{', b'}', "a JSON object")?;
        while more {
            if ahead.key()? == key {
                return T::get(&mut ahead).map_err(|e| format!("field {key:?}: {e}"));
            }
            ahead.skip()?;
            more = ahead.more(b'}')?;
        }
        Err(format!("missing field {key:?}"))
    }
}

/// A byte a number token may hold.
fn in_number(b: u8) -> bool {
    matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
}

/// The integer a number token spells: a digit run exactly; a float
/// form (`5.0`, `1e2`) when it is integral and below the 9e15 up to
/// which `f64` holds every integer.
fn integer<T: std::str::FromStr + TryFrom<i64>>(token: &str) -> Option<T> {
    token.parse().ok().or_else(|| {
        let f: f64 = token.parse().ok()?;
        let exact = f.fract() == 0.0 && f.abs() < 9e15;
        T::try_from(f as i64).ok().filter(|_| exact)
    })
}

impl Wire for u64 {
    fn put(&self, out: &mut String) {
        put_int(false, *self, out);
    }
    fn get(r: &mut Reader<'_>) -> Res<Self> {
        const WRONG: &str = "not a non-negative integer";
        integer(r.number(WRONG)?).ok_or_else(|| WRONG.to_string())
    }
}

impl Wire for usize {
    fn put(&self, out: &mut String) {
        put_int(false, *self as u64, out);
    }
    fn get(r: &mut Reader<'_>) -> Res<Self> {
        u64::get(r).and_then(|n| usize::try_from(n).map_err(|_| "exceeds usize".to_string()))
    }
}

/// Only ever a matrix cell, hence the messages.
impl Wire for i32 {
    fn put(&self, out: &mut String) {
        put_int(*self < 0, u64::from(self.unsigned_abs()), out);
    }
    #[inline(always)]
    fn get(r: &mut Reader<'_>) -> Res<Self> {
        const WRONG: &str = "matrix element is not an integer";
        let token = r.number(WRONG)?;
        token.parse().or_else(|_| match integer::<i64>(token) {
            Some(n) => i32::try_from(n).or(bad("matrix element exceeds i32 range")),
            None => bad(WRONG),
        })
    }
}

/// Only ever a matrix cell, hence the messages.
impl Wire for f32 {
    fn put(&self, out: &mut String) {
        float::put_f32s(std::slice::from_ref(self), out);
    }
    fn put_seq(cells: &[f32], out: &mut String) {
        out.push('[');
        float::put_f32s(cells, out);
        out.push(']');
    }
    /// Rounded once, from the text: exactly through `f64` on
    /// [`float::fast_f32`]'s path, else by `parse::<f32>` — never
    /// rounded to `f64` and then again to `f32`. An overflowing literal
    /// (`1e999`, or `1e300` at this width) parses to infinity: refused
    /// here rather than left to surface later as a code-range error.
    #[inline(always)]
    fn get(r: &mut Reader<'_>) -> Res<Self> {
        if let Some((cell, len)) = float::fast_f32(&r.text.as_bytes()[r.pos..]) {
            r.pos += len;
            return Ok(cell);
        }
        match r.number("matrix element is not a number")?.parse::<f32>() {
            Ok(f) if f.is_finite() => Ok(f),
            _ => bad("matrix element is not finite"),
        }
    }
}

impl Wire for f64 {
    /// An unbounded ratio (a burn rate over a zero budget) is clamped
    /// to the largest finite value; NaN travels as `null`.
    fn put(&self, out: &mut String) {
        put_float(self.clamp(f64::MIN, f64::MAX), !self.is_nan(), out);
    }
    fn get(r: &mut Reader<'_>) -> Res<Self> {
        const WRONG: &str = "not a finite number";
        match r.number(WRONG)?.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(f),
            _ => bad(WRONG),
        }
    }
}

impl Wire for bool {
    fn put(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn get(r: &mut Reader<'_>) -> Res<Self> {
        let value = r.take("true");
        if value || r.take("false") {
            return Ok(value);
        }
        bad("not a boolean")
    }
}

impl Wire for String {
    fn put(&self, out: &mut String) {
        put_str(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Res<Self> {
        let mut s = String::new();
        r.string(Some(&mut s)).map(|()| s)
    }
}

/// `null` is `None`.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(value) => value.put(out),
            None => out.push_str("null"),
        }
    }
    fn get(r: &mut Reader<'_>) -> Res<Self> {
        if r.take("null") {
            return Ok(None);
        }
        T::get(r).map(Some)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut String) {
        T::put_seq(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Res<Self> {
        let mut items = Vec::new();
        r.array(|r| T::get(r).map(|item| items.push(item)))?;
        Ok(items)
    }
}
