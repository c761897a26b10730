//! A blocking TCP client for the gateway protocol.
//!
//! One [`GatewayClient`] owns one connection and pipelines nothing:
//! every call writes one request line and blocks for one response line.
//! Concurrency comes from opening more clients — they are cheap, and the
//! server multiplexes every connection on one reactor thread.
//!
//! # Deadlines and retries
//!
//! [`ClientConfig`] adds graceful degradation on the caller's side:
//!
//! * `deadline` stamps every inference/decode request with a
//!   `deadline_ms` bound the server enforces at admission, dequeue, and
//!   batch formation — and arms a socket read timeout slightly past it,
//!   so even a wedged server cannot hold the caller hostage.
//! * `retries` re-issues **idempotent** verbs (stateless inference and
//!   the observability verbs) after transport failures or retryable
//!   remote errors (`internal`, `overloaded`), reconnecting first when
//!   the connection itself broke, with exponential backoff and
//!   deterministic jitter in between. Decode steps and session
//!   open/close are **never** retried blindly: a lost reply leaves the
//!   server-side outcome unknown, and replaying a decode step would
//!   corrupt the session's KV prefix.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use panacea_serve::Payload;
use panacea_tensor::Matrix;

use crate::protocol::{
    decode_response, write_request, DecodeReply, ErrorKind, EventsReply, GatewayMetrics,
    GatewayStats, InferReply, Reply, Request, Response, SessionCloseReply, SessionOpenReply,
    TraceKind, TraceReply,
};
use crate::GatewayError;
use panacea_telemetry::HealthReport;

/// Extra read-timeout headroom past the request deadline: enough for
/// the server to notice the deadline itself and answer
/// `deadline_exceeded` before the socket gives up.
const DEADLINE_SLACK: Duration = Duration::from_secs(1);

/// Client-side degradation knobs. The default retries nothing and sets
/// no deadline — exactly the old always-blocking behavior.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Per-request deadline stamped onto inference/decode requests (and
    /// enforced locally via a read timeout with one second of slack
    /// headroom). `None` sends no bound.
    pub deadline: Option<Duration>,
    /// Extra attempts for idempotent verbs after a retryable failure.
    pub retries: u32,
    /// Base backoff before the first retry; doubles per attempt, with
    /// ±50% deterministic jitter.
    pub backoff: Duration,
    /// Seed for the jitter sequence.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            deadline: None,
            retries: 0,
            backoff: Duration::from_millis(50),
            seed: 0,
        }
    }
}

/// A connected gateway client. See the module docs.
#[derive(Debug)]
pub struct GatewayClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    addr: SocketAddr,
    config: ClientConfig,
    jitter: u64,
    /// The request line and the reply line, reused across calls: a
    /// connection's messages are much the same size.
    request: String,
    reply: String,
}

impl GatewayClient {
    /// Connects to a [`GatewayServer`](crate::GatewayServer) with the
    /// default (no-deadline, no-retry) [`ClientConfig`].
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// [`connect`](Self::connect) with explicit deadline/retry knobs.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let addr = stream.peer_addr()?;
        let (reader, writer) = Self::halves(stream, config)?;
        Ok(GatewayClient {
            reader,
            writer,
            addr,
            config,
            jitter: config.seed ^ 0x9e37_79b9_7f4a_7c15,
            request: String::new(),
            reply: String::new(),
        })
    }

    fn halves(
        stream: TcpStream,
        config: ClientConfig,
    ) -> std::io::Result<(BufReader<TcpStream>, BufWriter<TcpStream>)> {
        stream.set_nodelay(true)?;
        if let Some(deadline) = config.deadline {
            stream.set_read_timeout(Some(deadline.saturating_add(DEADLINE_SLACK)))?;
        }
        let read_half = stream.try_clone()?;
        Ok((BufReader::new(read_half), BufWriter::new(stream)))
    }

    /// Drops the (possibly broken) connection and dials the same
    /// address again.
    ///
    /// # Errors
    ///
    /// Propagates connection failures; the old connection is already
    /// gone either way.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        let (reader, writer) = Self::halves(stream, self.config)?;
        self.reader = reader;
        self.writer = writer;
        Ok(())
    }

    /// The deadline bound stamped onto inference/decode requests.
    fn deadline_ms(&self) -> Option<u64> {
        self.config
            .deadline
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
    }

    /// One request line out, one response line back, of any kind.
    fn exchange(&mut self, request: &Request) -> Result<Response, GatewayError> {
        self.request.clear();
        write_request(request, &mut self.request);
        self.request.push('\n');
        self.writer.write_all(self.request.as_bytes())?;
        self.writer.flush()?;
        self.reply.clear();
        let n = self.reader.read_line(&mut self.reply)?;
        if n == 0 {
            return Err(GatewayError::Protocol(
                "server closed the connection before answering".to_string(),
            ));
        }
        decode_response(&self.reply)
    }

    /// One exchange whose reply must be `T`'s kind.
    fn call<T: Reply>(&mut self, request: &Request) -> Result<T, GatewayError> {
        expect(request, self.exchange(request)?)
    }

    /// [`call`](Self::call) for idempotent verbs only: retries up to
    /// `config.retries` extra attempts on transport failures (after
    /// reconnecting) and on retryable remote errors, sleeping a
    /// jittered exponential backoff between attempts.
    fn call_retrying<T: Reply>(&mut self, request: &Request) -> Result<T, GatewayError> {
        let mut attempt = 0u32;
        loop {
            let outcome = self.exchange(request);
            // Worth another attempt: transport breakage (the server may
            // have restarted, or the connection was reset mid-exchange)
            // and transient remote conditions, which arrive as
            // `Ok(Response::Error { .. })`. Deterministic rejections
            // (`bad_request`, `unknown_model`, `deadline_exceeded`,
            // `shutting_down`) would just fail identically again.
            let (retry, broke_transport) = match &outcome {
                Err(GatewayError::Io(_) | GatewayError::Protocol(_)) => (true, true),
                Ok(Response::Error {
                    kind: ErrorKind::Internal | ErrorKind::Overloaded,
                    ..
                }) => (true, false),
                _ => (false, false),
            };
            if !retry || attempt >= self.config.retries {
                return expect(request, outcome?);
            }
            attempt += 1;
            self.sleep_backoff(attempt);
            if broke_transport {
                // Best effort: a failed redial surfaces as Io on the
                // next attempt, consuming the remaining budget.
                let _ = self.reconnect();
            }
        }
    }

    /// Jittered exponential backoff: `backoff * 2^(attempt-1)`, scaled
    /// by a deterministic factor in `[0.5, 1.5)` so a fleet of clients
    /// retrying the same incident does not stampede in lockstep.
    fn sleep_backoff(&mut self, attempt: u32) {
        let base = self
            .config
            .backoff
            .saturating_mul(1 << (attempt - 1).min(6));
        // SplitMix64 step; seeded per client, so the sequence is
        // reproducible but distinct across seeds.
        self.jitter = self.jitter.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.jitter;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let frac = (z >> 11) as f64 / (1u64 << 53) as f64;
        std::thread::sleep(base.mul_f64(0.5 + frac));
    }

    /// Runs one typed stateless inference: codes for a linear chain,
    /// hidden states for a transformer-block model. The server rejects
    /// a payload whose kind does not match the model.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Remote`] for server-side rejections (overload,
    /// unknown model, bad payload), [`GatewayError::Io`] /
    /// [`GatewayError::Protocol`] for transport failures — including
    /// non-finite hidden elements, which JSON cannot carry.
    pub fn infer(&mut self, model: &str, payload: Payload) -> Result<InferReply, GatewayError> {
        if let Payload::Hidden(h) = &payload {
            check_finite(h)?;
        }
        // Stateless inference is idempotent (the server's cache keys on
        // content, and re-running a pure forward pass is harmless), so
        // it goes through the retrying path.
        self.call_retrying(&Request::Infer {
            model: model.to_string(),
            payload,
            deadline_ms: self.deadline_ms(),
        })
    }

    /// Runs a model on pre-quantized activation codes — shorthand for
    /// [`infer`](Self::infer) with [`Payload::Codes`].
    ///
    /// # Errors
    ///
    /// Same as [`infer`](Self::infer).
    pub fn infer_codes(
        &mut self,
        model: &str,
        codes: Matrix<i32>,
    ) -> Result<InferReply, GatewayError> {
        self.infer(model, Payload::Codes(codes))
    }

    /// Runs a transformer-block model on one sequence of hidden states
    /// — shorthand for [`infer`](Self::infer) with [`Payload::Hidden`].
    /// The reply's hidden states are bit-identical to direct
    /// `QuantizedBlock` execution (finite f32 values survive the JSON
    /// wire exactly).
    ///
    /// # Errors
    ///
    /// Same as [`infer`](Self::infer).
    pub fn infer_hidden(
        &mut self,
        model: &str,
        hidden: Matrix<f32>,
    ) -> Result<InferReply, GatewayError> {
        self.infer(model, Payload::Hidden(hidden))
    }

    /// Runs a model on float activations; the server converts them into
    /// the model's native payload (quantizes for chains, passes through
    /// for block models).
    ///
    /// # Errors
    ///
    /// Same as [`infer`](Self::infer).
    pub fn infer_f32(
        &mut self,
        model: &str,
        input: Matrix<f32>,
    ) -> Result<InferReply, GatewayError> {
        check_finite(&input)?;
        self.call_retrying(&Request::InferF32 {
            model: model.to_string(),
            input,
            deadline_ms: self.deadline_ms(),
        })
    }

    /// Opens a decode session on a transformer-block model. The reply
    /// names the shard the session (and its KV state) is pinned to.
    ///
    /// # Errors
    ///
    /// Same categories as [`infer`](Self::infer); notably
    /// `unknown_model`, `bad_request` for chain models, and
    /// `overloaded` when admission sheds the open.
    pub fn session_open(&mut self, model: &str) -> Result<SessionOpenReply, GatewayError> {
        self.call(&Request::SessionOpen {
            model: model.to_string(),
        })
    }

    /// Advances a decode session by one or more new token columns,
    /// returning their output hidden states — bit-identical to a full
    /// causal recompute of the session's whole prefix.
    ///
    /// # Errors
    ///
    /// Same categories as [`infer`](Self::infer), plus
    /// `unknown_session` once the session has been closed or evicted
    /// (reopen and replay the prefix).
    pub fn decode(
        &mut self,
        session: u64,
        hidden: Matrix<f32>,
    ) -> Result<DecodeReply, GatewayError> {
        check_finite(&hidden)?;
        // Never retried: a lost reply leaves the step's server-side
        // outcome unknown, and replaying it would corrupt the KV prefix.
        self.call(&Request::Decode {
            session,
            hidden,
            deadline_ms: self.deadline_ms(),
        })
    }

    /// Closes a decode session, freeing its KV state.
    ///
    /// # Errors
    ///
    /// `unknown_session` if it does not exist, plus the usual transport
    /// failures.
    pub fn session_close(&mut self, session: u64) -> Result<SessionCloseReply, GatewayError> {
        self.call(&Request::SessionClose { session })
    }

    /// Fetches gateway-level metrics (per-shard serving and session
    /// counters, cache, admission).
    ///
    /// # Errors
    ///
    /// Same transport failures as [`infer`](Self::infer).
    pub fn stats(&mut self) -> Result<GatewayStats, GatewayError> {
        self.call_retrying(&Request::Stats)
    }

    /// Fetches every metric-registry cell's quantile summary (every
    /// layer's stages plus each wire verb's `request` dimension).
    ///
    /// # Errors
    ///
    /// Same transport failures as [`infer`](Self::infer).
    pub fn metrics(&mut self) -> Result<GatewayMetrics, GatewayError> {
        self.call_retrying(&Request::Metrics)
    }

    /// Fetches up to `limit` of the pinned slow-request traces, newest
    /// first, each a structured span list — shorthand for
    /// [`trace_of`](Self::trace_of) with [`TraceKind::Slow`].
    ///
    /// # Errors
    ///
    /// Same transport failures as [`infer`](Self::infer).
    pub fn trace(&mut self, limit: usize) -> Result<TraceReply, GatewayError> {
        self.trace_of(limit, TraceKind::Slow)
    }

    /// Fetches up to `limit` of the most recent traces regardless of
    /// duration — shorthand for [`trace_of`](Self::trace_of) with
    /// [`TraceKind::Recent`].
    ///
    /// # Errors
    ///
    /// Same transport failures as [`infer`](Self::infer).
    pub fn trace_recent(&mut self, limit: usize) -> Result<TraceReply, GatewayError> {
        self.trace_of(limit, TraceKind::Recent)
    }

    /// Fetches up to `limit` recorded traces from the chosen ring,
    /// newest first.
    ///
    /// # Errors
    ///
    /// Same transport failures as [`infer`](Self::infer).
    pub fn trace_of(&mut self, limit: usize, kind: TraceKind) -> Result<TraceReply, GatewayError> {
        self.call_retrying(&Request::Trace { limit, kind })
    }

    /// Fetches the gateway's SLO health verdict: per-target burn rates
    /// over sliding windows plus the overall status.
    ///
    /// # Errors
    ///
    /// Same transport failures as [`infer`](Self::infer).
    pub fn health(&mut self) -> Result<HealthReport, GatewayError> {
        self.call_retrying(&Request::Health)
    }

    /// Fetches up to `limit` of the gateway's flight-recorder events,
    /// newest first, plus the pinned incident snapshot if SLO health
    /// ever flipped to degraded/critical.
    ///
    /// # Errors
    ///
    /// Same transport failures as [`infer`](Self::infer).
    pub fn events(&mut self, limit: usize) -> Result<EventsReply, GatewayError> {
        self.call_retrying(&Request::Events { limit })
    }
}

/// `response` as the reply `request` expects: an `error` reply becomes
/// [`GatewayError::Remote`], any other kind a [`GatewayError::Protocol`]
/// naming the verb and the kind received.
fn expect<T: Reply>(request: &Request, response: Response) -> Result<T, GatewayError> {
    if let Response::Error { kind, message } = response {
        return Err(GatewayError::Remote { kind, message });
    }
    let kind = response.kind();
    T::pick(response).ok_or_else(|| {
        GatewayError::Protocol(format!(
            "server answered the {} request with a reply of kind {kind:?}",
            request.verb()
        ))
    })
}

/// JSON cannot carry NaN/infinity; reject them before the wire rather
/// than silently mangling the payload.
fn check_finite(m: &Matrix<f32>) -> Result<(), GatewayError> {
    if m.iter().any(|v| !v.is_finite()) {
        return Err(GatewayError::Protocol(
            "float payload contains NaN or infinite elements".to_string(),
        ));
    }
    Ok(())
}
