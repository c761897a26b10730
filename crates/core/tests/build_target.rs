//! The workspace compiles for the CPU it runs on: `.cargo/config.toml`
//! passes `-C target-cpu=native`, so the `i16` AQS tiles auto-vectorise
//! at the host's full vector width instead of baseline x86-64's 128-bit
//! SSE2, and every plane pair runs on `vpdpbusd` where the host has
//! AVX-512 VNNI and VBMI. A build that lost the flag is bit-identical and only
//! slower, so nothing else would notice; these tests do.
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

/// Every plane pair of every plan runs on `vpdpbusd` (`core::dot`) only in
/// a build that targets AVX-512 VNNI and VBMI; any other build runs every
/// pair on the `i16` tile, bit-identical and slower, so nothing else
/// would notice that the host had them and the build did not.
#[test]
fn a_host_with_avx512_vnni_and_vbmi_gets_the_dot_product_build() {
    let host_has_dot =
        std::is_x86_feature_detected!("avx512vnni") && std::is_x86_feature_detected!("avx512vbmi");
    assert!(
        cfg!(all(
            target_feature = "avx512vnni",
            target_feature = "avx512vbmi"
        )) || !host_has_dot,
        "this CPU has AVX-512 VNNI and VBMI but the build does not target them, so every \
         plane pair runs on the i16 tile: `.cargo/config.toml` sets `-C target-cpu=native`, \
         and a set RUSTFLAGS (even an empty one) overrides it"
    );
}
