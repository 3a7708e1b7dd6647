//! Runtime observability hooks for the encoder/decoder pipeline.
//!
//! The paper's §II-C breaks encode cost into per-stage timing; this
//! module records that breakdown at runtime into the process-wide
//! [`numarck_obs::Registry`]. Instrument handles are resolved once
//! through `OnceLock`s, so the per-call cost is a pointer load plus the
//! instrument's own relaxed atomics — nothing on the hot path touches
//! the registry map.
//!
//! Metric names (see DESIGN.md §7):
//! * `numarck_encodes_total`, `numarck_decodes_total` — blocks encoded
//!   and decoded;
//! * `numarck_points_encoded_total` — data points pushed through
//!   [`crate::encode::encode`] and [`crate::group::encode_group`] (which
//!   counts one encode per variable and times its pooled fit once);
//! * `numarck_encode_transform_ns`, `numarck_encode_fit_ns`,
//!   `numarck_encode_classify_ns`, `numarck_encode_pack_ns`,
//!   `numarck_decode_ns` — per-phase wall time histograms.

use numarck_obs::{cached, Counter, Histogram};

cached!(encodes_total, counter, Counter, "numarck_encodes_total");
cached!(decodes_total, counter, Counter, "numarck_decodes_total");
cached!(points_encoded_total, counter, Counter, "numarck_points_encoded_total");
cached!(transform_ns, histogram, Histogram, "numarck_encode_transform_ns");
cached!(fit_ns, histogram, Histogram, "numarck_encode_fit_ns");
cached!(classify_ns, histogram, Histogram, "numarck_encode_classify_ns");
cached!(pack_ns, histogram, Histogram, "numarck_encode_pack_ns");
cached!(decode_ns, histogram, Histogram, "numarck_decode_ns");

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use numarck_obs::Registry;

    use super::*;

    #[test]
    fn handles_are_cached_and_named() {
        let a = encodes_total();
        let b = encodes_total();
        assert!(Arc::ptr_eq(a, b));
        // The handle aliases the registry's instrument of the same name.
        a.add(0);
        assert!(Arc::ptr_eq(a, &Registry::global().counter("numarck_encodes_total")));
    }

    #[test]
    fn encode_and_decode_record_phases() {
        use crate::{Config, Strategy};
        let before_enc = encodes_total().get();
        let before_fit = fit_ns().count();
        let before_dec = decode_ns().count();

        let prev: Vec<f64> = (0..512).map(|i| 1.0 + (i % 13) as f64).collect();
        let curr: Vec<f64> = prev.iter().map(|v| v * 1.01).collect();
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let (block, _) = crate::encode::encode(&prev, &curr, &cfg).unwrap();
        let _ = crate::decode::reconstruct(&prev, &block).unwrap();

        // Other tests encode/decode concurrently: lower bounds only.
        assert!(encodes_total().get() > before_enc);
        assert!(fit_ns().count() > before_fit);
        assert!(decode_ns().count() > before_dec);
    }

    #[test]
    fn group_encode_records_its_phases() {
        use crate::{Config, Strategy};
        let before_enc = encodes_total().get();
        let before_points = points_encoded_total().get();
        let before_transform = transform_ns().count();
        let before_fit = fit_ns().count();

        let prev: Vec<f64> = (0..512).map(|i| 1.0 + (i % 13) as f64).collect();
        let curr: Vec<f64> = prev.iter().map(|v| v * 1.01).collect();
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        crate::group::encode_group(&[(&prev, &curr), (&prev, &curr)], &cfg).unwrap();

        // Other tests encode concurrently: lower bounds only.
        assert!(encodes_total().get() >= before_enc + 2);
        assert!(points_encoded_total().get() >= before_points + 1024);
        assert!(transform_ns().count() > before_transform);
        assert!(fit_ns().count() > before_fit);
    }
}
