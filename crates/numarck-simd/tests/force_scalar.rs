//! `NUMARCK_SIMD=scalar` pins the dispatcher to the scalar path.
//!
//! Lives in its own test binary: the level is resolved once per process
//! through a `OnceLock`, so the override must be in the environment
//! before the first `active_level()` call — which a unit test inside
//! the crate's main test binary cannot guarantee.

use numarck_simd::Level;

#[test]
fn force_scalar_env_pins_dispatch() {
    // Set before any dispatch query in this process; single test in
    // this binary, so no other thread has resolved the level yet.
    std::env::set_var("NUMARCK_SIMD", "scalar");
    assert_eq!(numarck_simd::active_level(), Level::Scalar);

    // And the dispatched entry points actually run the scalar kernels:
    // spot-check one kernel per module against its explicit-level twin.
    let prev = vec![1.0f64, 2.0, 0.0, -4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
    let curr = vec![1.1f64, 2.0, 3.0, -4.4, 5.0, 6.6, 7.0, 8.8, 9.0];
    let mut got = vec![0.0f64; prev.len()];
    let mut want = vec![0.0f64; prev.len()];
    let bad_got = numarck_simd::transform::change_ratios(&prev, &curr, &mut got);
    let bad_want = numarck_simd::transform::change_ratios_with(
        Level::Scalar,
        &prev,
        &curr,
        &mut want,
    );
    assert_eq!(bad_got, bad_want);
    let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits);

    let words = [0xDEAD_BEEF_0123_4567u64, u64::MAX, 0, 1];
    assert_eq!(
        numarck_simd::popcount::popcount_sum(&words),
        numarck_simd::popcount::popcount_sum_with(Level::Scalar, &words),
    );

    // Long enough for the PCLMULQDQ fold, had dispatch picked it.
    let bytes: Vec<u8> = (0..1000u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
    assert_eq!(
        numarck_simd::crc::crc32(&bytes),
        numarck_simd::crc::crc32_update_with(Level::Scalar, 0, &bytes),
    );
}
