//! `perf` — the reproducible encode/decode throughput harness.
//!
//! Times the stages of the compression path — change-ratio transform,
//! representative-table fit, full encode (transform + fit +
//! rank-partitioned packing), one-hop decode, and an 8-hop restart
//! replay — over FLASH- and climate-shaped workloads at thread counts 1,
//! 2, and all available cores, then emits `BENCH_encode.json`
//! (transform, fit, encode and calibration rows) and `BENCH_decode.json`
//! (decode and replay rows) so every future change has a throughput
//! trajectory to regress against. The fit row times the 1-D K-means fit
//! alone on the variable's fit sample; its `points` are the variable's,
//! like every other row, so its rate compares directly with the encode
//! row's. A replay row's `points` are the field's: it rebuilds one
//! field through all 8 hops of its chain (climate `rlds`, which escapes
//! points, and FLASH `dens`, which does not).
//!
//! Every row is timed in [`ROUNDS`] interleaved rounds — each round times
//! every row once — and reports the median, so a burst of host steal
//! lands in one round of many rows rather than in all rounds of one row.
//! A repetition runs its operation back to back until it has taken at
//! least [`MIN_REP_SECS`] and reports the time per operation. The
//! `calibration` row times a fixed single-thread loop defined in this
//! file, which no library change touches, once right before every
//! repetition of every other row. Each row also reports
//! `secs_per_calibration`, the median over rounds of its repetition's
//! time divided by the adjacent calibration repetition's: that quotient
//! cancels how fast the host was at that moment, and it is what
//! `bench_gate` compares.
//!
//! Usage:
//!
//! ```text
//! perf [--smoke] [--out-dir DIR]
//! ```
//!
//! `--smoke` shrinks the workloads to a few thousand points so CI can run
//! the harness end-to-end in seconds; the JSON schema is identical.

use std::fmt::Write as _;
use std::time::Instant;

use climate_sim::ClimateVar;
use flash_sim::FlashVar;

use numarck::encode::CompressedIteration;
use numarck::{decode, encode, ratio, strategy, Config, Strategy};
use numarck_bench::data::{climate_sequence, flash_sequence, tile_to, FlashConfig};
use numarck_bench::report::{host_meta_json, print_table};
use numarck_obs::{render_json as obs_metrics_json, set_timing_enabled, Registry};
use numarck_par::pool::{available_threads, with_threads};

/// Interleaved timing rounds per row; each row reports its median.
const ROUNDS: usize = 9;
/// Shortest timed repetition: faster operations repeat back to back
/// until one repetition takes at least this long.
const MIN_REP_SECS: f64 = 0.005;
/// Hops on each replay row's chain.
const REPLAY_HOPS: usize = 8;

/// One timed measurement.
struct Sample {
    workload: &'static str,
    stage: &'static str,
    points: usize,
    threads: usize,
    secs: f64,
    /// Median of per-round (row time / adjacent calibration time).
    secs_per_calibration: f64,
    speedup_vs_1t: f64,
}

impl Sample {
    fn points_per_sec(&self) -> f64 {
        self.points as f64 / self.secs
    }

    fn mb_per_sec(&self) -> f64 {
        // 8-byte doubles; MB/s of raw input processed.
        self.points as f64 * 8.0 / self.secs / 1e6
    }
}

fn main() {
    let mut smoke = false;
    let mut out_dir = ".".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out-dir" => {
                out_dir = args.next().unwrap_or_else(|| usage("--out-dir needs a value"))
            }
            "--help" | "-h" => usage("perf [--smoke] [--out-dir DIR]"),
            other => usage(&format!("unknown argument: {other}")),
        }
    }

    let points = if smoke { 1 << 16 } else { 2 << 20 };
    let reps = if smoke { 2 } else { 5 };
    let config = Config::new(8, 0.001, Strategy::Clustering).expect("paper-default config");

    // Thread counts 1, 2, all — deduplicated (a 1- or 2-core host runs
    // fewer columns rather than timing the same thread count twice).
    let mut threads = vec![1usize, 2, available_threads()];
    threads.sort_unstable();
    threads.dedup();

    // Resolve the lane-kernel dispatch level once, up front: the name
    // lands in both JSON files (so a regression diff that crosses a
    // dispatch change is visible as such) and the call seeds the
    // `simd_dispatch_level` gauge in the metrics snapshot below.
    let dispatch = numarck_simd::active_level().name();

    println!(
        "perf: {points} points/workload, median of {ROUNDS} interleaved rounds, \
         threads {threads:?}, simd dispatch {dispatch}{}",
        if smoke { ", SMOKE" } else { "" }
    );

    // FLASH-shaped: a Sedov blast density checkpoint pair, tiled to size.
    // Climate-shaped: a CMIP5-like radiation field on the 144×90 grid.
    let flash_cfg =
        FlashConfig { blocks: 4, warmup_steps: if smoke { 4 } else { 20 }, ..Default::default() };
    let flash_seq = flash_sequence(flash_cfg, FlashVar::Dens, REPLAY_HOPS + 1);
    let flash = tile_to(&flash_seq[..2].to_vec(), points);
    let climate = tile_to(&climate_sequence(ClimateVar::Rlus, 2), points);
    let workloads: [(&'static str, &Vec<Vec<f64>>); 2] =
        [("flash_sedov_dens", &flash), ("climate_rlus", &climate)];
    // 8-hop restart chains: FLASH density (every word fully index-coded)
    // and climate `rlds` (a share of points escaped in every word).
    let rlds_seq = climate_sequence(ClimateVar::Rlds, REPLAY_HOPS + 1);
    let chains = [
        ("flash_sedov_dens", replay_chain(&flash_seq, points, &config)),
        ("climate_rlds", replay_chain(&rlds_seq, points, &config)),
    ];

    // Inputs of the one-hop rows: the fit sample and the encoded block.
    let inputs: Vec<_> = workloads
        .iter()
        .map(|&(name, seq)| {
            let (prev, curr) = (&seq[0], &seq[1]);
            let sample = ratio::compute(prev, curr, config.tolerance())
                .expect("finite bench data")
                .fit_sample;
            let (block, _) = encode::encode(prev, curr, &config).expect("finite bench data");
            (name, prev, curr, sample, block)
        })
        .collect();
    let calib = Calibration::new(points);

    let mut jobs: Vec<Job<'_>> = Vec::new();
    for (name, prev, curr, sample, block) in &inputs {
        let (name, prev, curr) = (*name, *prev, *curr);
        for &t in &threads {
            let config = &config;
            jobs.push(Job::new(name, "transform", points, t, move || {
                let r = with_threads(t, || ratio::compute(prev, curr, config.tolerance()));
                std::hint::black_box(r.expect("finite bench data"));
            }));
            jobs.push(Job::new(name, "fit", points, t, move || {
                let table = with_threads(t, || {
                    strategy::fit_table(
                        config.strategy(),
                        sample,
                        config.max_table_len(),
                        &config.clustering(),
                    )
                });
                std::hint::black_box(table);
            }));
            jobs.push(Job::new(name, "encode", points, t, move || {
                let r = with_threads(t, || encode::encode(prev, curr, config));
                std::hint::black_box(r.expect("finite bench data"));
            }));
            jobs.push(Job::new(name, "decode", points, t, move || {
                let r = with_threads(t, || decode::reconstruct(prev, block));
                std::hint::black_box(r.expect("self-produced block decodes"));
            }));
        }
    }
    for (name, (base, blocks)) in &chains {
        for &t in &threads {
            jobs.push(Job::new(name, "replay", points, t, move || {
                let hops: Vec<_> = blocks.iter().map(CompressedIteration::block_ref).collect();
                let r = with_threads(t, || decode::replay(base, &hops));
                std::hint::black_box(r.expect("self-produced chain replays"));
            }));
        }
    }
    let mut calibration = Job::new("calibration", "calibrate", points, 1, || calib.run());

    calibration.size();
    for job in &mut jobs {
        job.size();
    }
    for _ in 0..ROUNDS {
        for job in &mut jobs {
            let reference = calibration.time();
            let secs = job.time();
            job.calibrated.push(secs / reference);
        }
    }
    calibration.calibrated = vec![1.0];
    jobs.push(calibration);
    let mut samples: Vec<Sample> = Vec::new();
    for job in &jobs {
        let secs = median(&job.secs);
        let base = samples
            .iter()
            .find(|s| s.workload == job.workload && s.stage == job.stage && s.threads == 1)
            .map_or(secs, |s| s.secs);
        samples.push(Sample {
            workload: job.workload,
            stage: job.stage,
            points: job.points,
            threads: job.threads,
            secs,
            secs_per_calibration: median(&job.calibrated),
            speedup_vs_1t: base / secs,
        });
    }

    let mut rows = vec![vec![
        "workload".to_string(),
        "stage".to_string(),
        "threads".to_string(),
        "ms".to_string(),
        "Mpoints/s".to_string(),
        "MB/s".to_string(),
        "speedup".to_string(),
    ]];
    for s in &samples {
        rows.push(vec![
            s.workload.to_string(),
            s.stage.to_string(),
            s.threads.to_string(),
            format!("{:.2}", s.secs * 1e3),
            format!("{:.2}", s.points_per_sec() / 1e6),
            format!("{:.1}", s.mb_per_sec()),
            format!("{:.2}x", s.speedup_vs_1t),
        ]);
    }
    print_table(&rows);

    // Per-kernel × per-level microbench: each lane kernel timed at every
    // dispatch level this host supports, single-threaded. These rows are
    // informational (not regression-gated): they answer "which level is
    // the dispatcher picking, and what is each level worth here".
    // The quantize kernel's rows run on real ratios: FLASH `dens` (about
    // nine points in ten small) and climate `rlds` (almost all large).
    let quantize_inputs = [
        QuantizeInput::new("flash_sedov_dens", &flash, &config),
        QuantizeInput::new("climate_rlds", &tile_to(&rlds_seq[..2].to_vec(), points), &config),
    ];
    let kernels = kernel_microbench(points, reps, &quantize_inputs);
    let mut krows = vec![vec![
        "kernel".to_string(),
        "level".to_string(),
        "input".to_string(),
        "unit".to_string(),
        "M units/s".to_string(),
    ]];
    for k in &kernels {
        krows.push(vec![
            k.kernel.to_string(),
            k.level.to_string(),
            k.input.unwrap_or("-").to_string(),
            k.unit.to_string(),
            format!("{:.2}", k.count as f64 / k.secs / 1e6),
        ]);
    }
    print_table(&krows);

    // Observability overhead: the same encode workload with span timing
    // globally disabled vs enabled (counters stay on in both runs, so
    // the delta isolates the clock reads in the phase spans). The
    // budget in DESIGN.md §7 is < 2% on the encode path.
    let overhead = {
        let (prev, curr) = (&flash[0], &flash[1]);
        let t = *threads.last().expect("non-empty thread list");
        set_timing_enabled(false);
        let secs_off = best_of(reps, || {
            let r = with_threads(t, || encode::encode(prev, curr, &config));
            std::hint::black_box(r.expect("finite bench data"));
        });
        set_timing_enabled(true);
        let secs_on = best_of(reps, || {
            let r = with_threads(t, || encode::encode(prev, curr, &config));
            std::hint::black_box(r.expect("finite bench data"));
        });
        let o = ObsOverhead { secs_off, secs_on, threads: t };
        println!(
            "obs overhead (flash_sedov_dens encode, {t} threads): \
             timing off {:.2} ms, on {:.2} ms, delta {:+.2}%",
            secs_off * 1e3,
            secs_on * 1e3,
            o.delta_pct()
        );
        o
    };

    // Point-in-time metrics snapshot of everything the harness itself
    // drove through the instrumented encoder/decoder.
    let metrics = obs_metrics_json(&Registry::global().snapshot());

    let is_decode = |s: &&Sample| matches!(s.stage, "decode" | "replay");
    let encode_rows: Vec<&Sample> = samples.iter().filter(|s| !is_decode(s)).collect();
    let decode_rows: Vec<&Sample> = samples.iter().filter(is_decode).collect();
    for (file, rows, overhead, kernel_rows) in [
        ("BENCH_encode.json", &encode_rows, Some(&overhead), Some(kernels.as_slice())),
        ("BENCH_decode.json", &decode_rows, None, None),
    ] {
        let path = format!("{out_dir}/{file}");
        std::fs::create_dir_all(&out_dir).expect("create output directory");
        std::fs::write(&path, render_json(rows, smoke, overhead, &metrics, dispatch, kernel_rows))
            .expect("write benchmark JSON");
        println!("wrote {path}");
    }
}

/// One gated row: the operation it times and its per-round timings.
struct Job<'a> {
    workload: &'static str,
    stage: &'static str,
    points: usize,
    threads: usize,
    run: Box<dyn FnMut() + 'a>,
    /// Operations per timed repetition.
    inner: usize,
    /// Seconds per operation, one entry per repetition.
    secs: Vec<f64>,
    /// Each repetition's time over its adjacent calibration time.
    calibrated: Vec<f64>,
}

impl<'a> Job<'a> {
    fn new(
        workload: &'static str,
        stage: &'static str,
        points: usize,
        threads: usize,
        run: impl FnMut() + 'a,
    ) -> Self {
        Self {
            workload,
            stage,
            points,
            threads,
            run: Box::new(run),
            inner: 1,
            secs: Vec::new(),
            calibrated: Vec::new(),
        }
    }

    /// Warm up once and choose how many operations one repetition runs.
    fn size(&mut self) {
        let t0 = Instant::now();
        (self.run)();
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        self.inner = ((MIN_REP_SECS / once).ceil() as usize).clamp(1, 10_000);
    }

    /// Time one repetition; record and return the seconds per operation.
    fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..self.inner {
            (self.run)();
        }
        let secs = t0.elapsed().as_secs_f64() / self.inner as f64;
        self.secs.push(secs);
        secs
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The reference workload for `bench_gate`'s normalisation: a fixed
/// table-lookup multiply-reduce over `points` doubles on one thread,
/// written here so that no library change moves it. It allocates and
/// spawns nothing, so it times the core, not the allocator or the
/// scheduler.
struct Calibration {
    input: Vec<f64>,
    factors: [f64; 256],
}

impl Calibration {
    fn new(points: usize) -> Self {
        Self {
            input: (0..points).map(|i| 1.0 + (i % 1009) as f64 / 100.0).collect(),
            factors: std::array::from_fn(|k| 1.0 + k as f64 / 1024.0),
        }
    }

    fn run(&self) {
        let mut acc = [0.0f64; 4];
        for (i, quad) in self.input.chunks(4).enumerate() {
            for (a, &v) in acc.iter_mut().zip(quad) {
                *a += v * self.factors[(i + v as usize) & 255];
            }
        }
        std::hint::black_box(acc);
    }
}

/// An open-loop restart chain over `seq`, each iteration tiled to
/// `points`: the first iteration as the base, and one encoded hop per
/// later iteration.
fn replay_chain(
    seq: &[Vec<f64>],
    points: usize,
    config: &Config,
) -> (Vec<f64>, Vec<CompressedIteration>) {
    let base = tile_to(&seq[..1].to_vec(), points).remove(0);
    let hops = seq
        .windows(2)
        .map(|pair| {
            let pair = tile_to(&pair.to_vec(), points);
            encode::encode(&pair[0], &pair[1], config).expect("finite bench data").0
        })
        .collect();
    (base, hops)
}

/// The quantize kernel's inputs on one real iteration pair.
struct QuantizeInput {
    name: &'static str,
    /// The sorted representatives the encoder fits to the pair.
    reps: Vec<f64>,
    /// The pair's dense change ratios.
    ratios: Vec<f64>,
}

impl QuantizeInput {
    fn new(name: &'static str, pair: &[Vec<f64>], config: &Config) -> Self {
        let ratios =
            ratio::compute(&pair[0], &pair[1], config.tolerance()).expect("finite bench data");
        let table = strategy::fit_table(
            config.strategy(),
            &ratios.fit_sample,
            config.max_table_len(),
            &config.clustering(),
        );
        Self { name, reps: table.representatives().to_vec(), ratios: ratios.ratios }
    }
}

/// One lane-kernel measurement at one explicit dispatch level.
struct KernelSample {
    kernel: &'static str,
    level: &'static str,
    /// The real workload a row's input comes from; `None` for the
    /// synthetic inputs.
    input: Option<&'static str>,
    /// What `count` counts: `"points"` for the lane kernels, `"bytes"`
    /// for the checksum.
    unit: &'static str,
    count: usize,
    secs: f64,
}

/// Time the five `numarck-simd` kernels at every dispatch level the host
/// supports (quantize, which has one kernel, once per real input).
///
/// The quantize rows classify the change ratios of real iteration
/// pairs against the table the encoder fits to them, so the mix of
/// small, searched and escaped points is the encoder's. The other
/// inputs are synthetic: a periodic iteration pair for the transform,
/// an 8-bit packed index stream for the unpack kernel, and the
/// `8 × points` bytes of the variable itself for the CRC.
fn kernel_microbench(
    points: usize,
    reps: usize,
    quantize_inputs: &[QuantizeInput],
) -> Vec<KernelSample> {
    use numarck_simd::{crc, popcount, quantize, transform, unpack};

    let prev: Vec<f64> = (0..points).map(|i| 1.0 + ((i * 31) % 1009) as f64 / 100.0).collect();
    let curr: Vec<f64> =
        prev.iter().enumerate().map(|(i, v)| v * (1.0 + 0.01 * ((i % 7) as f64))).collect();
    let words = vec![0x9E37_79B9_7F4A_7C15u64; points / 64 + 1];
    let bits = 8u8;
    let packed_words = vec![0x0102_0304_0506_0708u64; (points * bits as usize).div_ceil(64) + 1];
    let raw: Vec<u8> = curr.iter().flat_map(|v| v.to_le_bytes()).collect();

    // Quantize has one kernel, run at every level: one row per input,
    // under `scalar`.
    let mut out = Vec::new();
    for q in quantize_inputs {
        let mut codes = vec![0u32; q.ratios.len()];
        let mut errs = vec![0.0f64; q.ratios.len()];
        let secs = best_of(reps, || {
            quantize::classify_quantize(&q.ratios, &q.reps, 0.001, &mut codes, &mut errs);
            std::hint::black_box(codes.last());
        });
        out.push(KernelSample {
            kernel: "quantize",
            level: numarck_simd::Level::Scalar.name(),
            input: Some(q.name),
            unit: "points",
            count: q.ratios.len(),
            secs,
        });
    }
    for level in numarck_simd::Level::all_supported() {
        let name = level.name();
        let mut rbuf = vec![0.0f64; points];
        let transform_secs = best_of(reps, || {
            std::hint::black_box(transform::change_ratios_with(level, &prev, &curr, &mut rbuf));
        });
        let popcount_secs = best_of(reps, || {
            std::hint::black_box(popcount::popcount_sum_with(level, &words));
        });
        let mut unpacked = vec![0u32; points];
        let unpack_secs = best_of(reps, || {
            unpack::unpack_with(level, &packed_words, bits, 0, &mut unpacked);
            std::hint::black_box(unpacked.last());
        });
        let crc_secs = best_of(reps, || {
            std::hint::black_box(crc::crc32_update_with(level, 0, std::hint::black_box(&raw)));
        });
        for (kernel, unit, count, secs) in [
            ("transform", "points", points, transform_secs),
            ("popcount", "points", points, popcount_secs),
            ("unpack", "points", points, unpack_secs),
            ("crc", "bytes", raw.len(), crc_secs),
        ] {
            out.push(KernelSample { kernel, level: name, input: None, unit, count, secs });
        }
    }
    out
}

/// Timing-off vs timing-on encode wall time for the instrumentation
/// overhead line in `BENCH_encode.json`.
struct ObsOverhead {
    secs_off: f64,
    secs_on: f64,
    threads: usize,
}

impl ObsOverhead {
    fn delta_pct(&self) -> f64 {
        (self.secs_on / self.secs_off - 1.0) * 100.0
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Best (minimum) wall time of `reps` runs — the standard noise filter
/// for throughput numbers.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Hand-rolled JSON (the workspace deliberately has no JSON dependency):
/// a flat, line-per-result layout that stays trivially diffable.
fn render_json(
    samples: &[&Sample],
    smoke: bool,
    overhead: Option<&ObsOverhead>,
    metrics: &str,
    dispatch: &str,
    kernels: Option<&[KernelSample]>,
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"harness\": \"numarck-bench perf\",");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    let _ = writeln!(s, "  \"simd_dispatch\": \"{dispatch}\",");
    let _ = writeln!(s, "  \"format_version\": {},", numarck_checkpoint::WRITE_VERSION);
    let _ = writeln!(s, "  \"host\": {},", host_meta_json());
    if let Some(ks) = kernels {
        let _ = writeln!(s, "  \"kernels\": [");
        for (i, k) in ks.iter().enumerate() {
            let comma = if i + 1 == ks.len() { "" } else { "," };
            let input = k.input.map_or(String::new(), |i| format!(" \"input\": \"{i}\","));
            let _ = writeln!(
                s,
                "    {{\"kernel\": \"{}\", \"level\": \"{}\",{input} \"{unit}\": {}, \
                 \"secs\": {:.6}, \"{unit}_per_sec\": {:.1}}}{comma}",
                k.kernel,
                k.level,
                k.count,
                k.secs,
                k.count as f64 / k.secs,
                unit = k.unit,
            );
        }
        let _ = writeln!(s, "  ],");
    }
    if let Some(o) = overhead {
        let _ = writeln!(
            s,
            "  \"obs_overhead\": {{\"stage\": \"encode\", \"threads\": {}, \
             \"secs_timing_off\": {:.6}, \"secs_timing_on\": {:.6}, \"delta_pct\": {:.3}}},",
            o.threads, o.secs_off, o.secs_on,
            o.delta_pct(),
        );
    }
    let _ = writeln!(s, "  \"metrics\": {metrics},");
    let _ = writeln!(s, "  \"results\": [");
    for (i, r) in samples.iter().enumerate() {
        let comma = if i + 1 == samples.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"workload\": \"{}\", \"stage\": \"{}\", \"points\": {}, \"threads\": {}, \
             \"secs\": {:.6}, \"points_per_sec\": {:.1}, \"mb_per_sec\": {:.3}, \
             \"speedup_vs_1t\": {:.3}, \"secs_per_calibration\": {:.6}}}{comma}",
            r.workload,
            r.stage,
            r.points,
            r.threads,
            r.secs,
            r.points_per_sec(),
            r.mb_per_sec(),
            r.speedup_vs_1t,
            r.secs_per_calibration,
        );
    }
    s.push_str("  ]\n}\n");
    s
}
