//! The workspace compiles for the CPU it runs on: `.cargo/config.toml`
//! passes `-C target-cpu=native`, so the `i16` AQS tiles auto-vectorise
//! at the host's full vector width instead of baseline x86-64's 128-bit
//! SSE2. A build that lost the flag is bit-identical and only slower, so
//! nothing else would notice; this test does.
#![cfg(target_arch = "x86_64")]

#[test]
fn a_host_with_avx2_gets_an_avx2_build() {
    let host_has_avx2 = std::is_x86_feature_detected!("avx2");
    assert!(
        cfg!(target_feature = "avx2") || !host_has_avx2,
        "this CPU has AVX2 but the build does not target it: \
         `.cargo/config.toml` sets `-C target-cpu=native`, and a set \
         RUSTFLAGS (even an empty one) overrides it"
    );
}
