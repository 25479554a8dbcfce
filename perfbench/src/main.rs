//! End-to-end serving benchmark for the Tender decode/serve stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload chat|rag|prefill --seed N --seconds S --trace 0|1
//! ```
//!
//! One process sets up the Llama-2-7B eval-preset model with Tender@8
//! weights (several times, timing each), runs the workload's timed phase
//! on the int8 KV cache, checks the outputs and the workload's guards, and
//! prints a human report followed by one JSON line. With `--trace 0` the
//! JSON carries the end-to-end metrics; with `--trace 1` the process runs
//! the phase once untraced and once traced and the JSON carries the
//! per-layer metrics, while the spans go to `.bench_out/`. The process
//! exits non-zero when any check or guard fails. See `README.md` for the
//! metric → layer → workload map.

mod probe;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tender::metrics as m;
use tender::model::engine::DecodeSession;
use tender::model::{ModelShape, QuantizedModel};
use tender::{gemm, pool, scheme_by_name, Experiment, ExperimentOptions};

use stats::{median, percentile, Summary};
use trace::Tracer;
use workloads::{Phase, Sample, Workload, DEFAULT_SEED, KV_MODE};

/// Weight scheme of every workload.
const SCHEME: &str = "Tender@8";
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload =
        Workload::parse(name).ok_or(format!("unknown workload '{name}' (chat, rag, prefill)"))?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

fn model_shape() -> ModelShape {
    ModelShape::llama2_7b().eval_preset()
}

struct Setup {
    exp: Experiment,
    qm: QuantizedModel,
    total_s: Vec<f64>,
    experiment_s: Vec<f64>,
    quantize_s: Vec<f64>,
}

/// `Experiment::new` + `Experiment::quantize`, [`SETUP_REPEATS`] times;
/// the last model is the one the workload runs on.
fn setup(tr: &mut Tracer) -> Setup {
    let shape = model_shape();
    let (mut total_s, mut experiment_s, mut quantize_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for i in 0..SETUP_REPEATS as u64 {
        // Free the previous set-up first so peak memory holds one model.
        drop(built.take());
        let t = Instant::now();
        let exp = tr.call("setup.experiment", i, || {
            Experiment::new(&shape, ExperimentOptions::standard())
        });
        let t_exp = t.elapsed().as_secs_f64();
        let qm = tr.call("setup.quantize", i, || {
            exp.quantize(scheme_by_name(SCHEME).expect("registered scheme"))
        });
        let total = t.elapsed().as_secs_f64();
        total_s.push(total);
        experiment_s.push(t_exp);
        quantize_s.push(total - t_exp);
        built = Some((exp, qm));
    }
    let (exp, qm) = built.expect("at least one set-up");
    Setup {
        exp,
        qm,
        total_s,
        experiment_s,
        quantize_s,
    }
}

/// Untimed warm-up: one short prefill + a few steps, so lazy pool start-up
/// and first-touch page faults stay out of the timed phase.
fn warm_up(qm: &QuantizedModel) {
    let vocab = qm.weights().shape.vocab;
    let mut s = DecodeSession::with_cache_mode(qm, KV_MODE);
    let prompt: Vec<usize> = (0..32).map(|i| (i * 37 + 11) % vocab).collect();
    s.prefill(&prompt);
    for t in 0..8 {
        s.step((t * 13 + 5) % vocab).expect("in window");
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_owned))
        })
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output of a command run to completion, trimmed, if it succeeded.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV digest of every file under `crates/` (paths and contents, in path
/// order): identifies the measured source where no git metadata exists.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = 0u64;
    for f in &files {
        let mut bytes = h.to_le_bytes().to_vec();
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend_from_slice(&std::fs::read(f).unwrap_or_default());
        h = tender::faults::hash_bytes(&bytes);
    }
    format!("{h:016x} ({} files)", files.len())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Provenance of the result, as one JSON object.
fn provenance(args: &Args) -> String {
    let shape = model_shape();
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let params = match args.workload {
        Workload::Chat | Workload::Rag => {
            let c = workloads::serve_config(args.workload, args.seed);
            format!(
                "traffic sets {} requests {} batch {} prompt {:?} decode {:?} arrival_gap<={} queue_cap {} \
                 prefill_chunk {} shared_prefix {} arena_bytes {} watermark {} page_rows {}",
                workloads::TRAFFIC_SETS,
                c.requests,
                c.max_batch,
                c.prompt_len,
                c.decode_len,
                c.max_arrival_gap,
                c.queue_cap,
                c.prefill_chunk,
                c.shared_prefix,
                if c.kv_arena_bytes == u64::MAX {
                    "unbounded".to_string()
                } else {
                    c.kv_arena_bytes.to_string()
                },
                c.kv_watermark,
                c.page_rows
            )
        }
        Workload::Prefill => format!(
            "sessions/wave {} waves/cycle {} prompt {:?} decode {} arena unbounded shared",
            workloads::WAVE_SESSIONS,
            workloads::WAVES_PER_CYCLE,
            workloads::PREFILL_PROMPT,
            workloads::PREFILL_DECODE
        ),
    };
    let fields = [
        (
            "commit",
            command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        ),
        ("source_digest", source_digest(Path::new("."))),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("pool_threads", pool::current_threads().to_string()),
        ("backend", gemm::current().label().to_string()),
        ("TENDER_THREADS", env("TENDER_THREADS")),
        ("TENDER_BACKEND", env("TENDER_BACKEND")),
        (
            "rustc",
            command_output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into()),
        ),
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        (
            "model",
            format!(
                "{} eval preset d={} ffn={} layers={} heads={} vocab={} max_seq={}",
                shape.name,
                shape.d_model,
                shape.ffn_dim,
                shape.layers,
                shape.heads,
                shape.vocab,
                shape.max_seq
            ),
        ),
        ("scheme", SCHEME.to_string()),
        ("kv_cache", KV_MODE.label().to_string()),
        ("params", params),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Pass/fail verdicts of the output checks and workload guards.
#[derive(Default)]
struct Verdicts(Vec<(String, bool, String)>);

impl Verdicts {
    fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.0.push((name.into(), ok, detail.into()));
    }

    fn all_pass(&self) -> bool {
        self.0.iter().all(|(_, ok, _)| *ok)
    }
}

/// Output checks shared by both phases of a run.
fn check_outputs(
    w: Workload,
    seed: u64,
    p: &Phase,
    qm: &QuantizedModel,
    v: &mut Verdicts,
    tag: &str,
) {
    let shape = &qm.weights().shape;
    let digest = p.output_digest();
    v.check(
        format!(
            "{tag}: outputs identical across {} samples of {} input sets",
            p.samples.len(),
            p.sets
        ),
        p.repeats_agree(),
        format!("{digest:016x}"),
    );
    if seed == DEFAULT_SEED {
        v.check(
            format!("{tag}: output digest equals the digest recorded at seed {DEFAULT_SEED}"),
            digest == w.recorded_digest(),
            format!("got {digest:016x}, recorded {:016x}", w.recorded_digest()),
        );
    }
    let (macs, int_macs) = match w {
        Workload::Prefill => (p.predicted_macs, p.predicted_kv_int_macs),
        Workload::Chat | Workload::Rag => {
            let cfg = workloads::serve_config(w, seed);
            p.serve_runs.iter().fold((0, 0), |(a, b), r| {
                let (x, y) = workloads::predicted_serve_macs(shape, &cfg, r);
                (a + x, b + y)
            })
        }
    };
    v.check(
        format!("{tag}: engine decode MACs equal sim decode_step_macs"),
        p.delta.decode_macs == macs && p.delta.decode_steps > 0,
        format!(
            "engine {} sim {macs} over {} steps",
            p.delta.decode_macs, p.delta.decode_steps
        ),
    );
    v.check(
        format!("{tag}: engine integer KV MACs equal sim kv_int_dot_macs"),
        p.delta.kv_int_dot_macs == int_macs,
        format!("engine {} sim {int_macs}", p.delta.kv_int_dot_macs),
    );
    for (i, r) in p.serve_runs.iter().enumerate() {
        v.check(
            format!("{tag}: run {i} verdict has unresolved == 0"),
            r.unresolved == 0,
            r.verdict(),
        );
    }
    if w == Workload::Prefill {
        v.check(
            format!("{tag}: no try_step_all slot returned Err"),
            p.step_errors == 0,
            format!("{} errors", p.step_errors),
        );
    }
}

/// The property each workload was chosen for; a run that lacks it fails.
fn check_guards(w: Workload, p: &Phase, v: &mut Verdicts) {
    let d = &p.delta;
    let sum =
        |f: fn(&tender::serve::ServeReport) -> u64| -> u64 { p.serve_runs.iter().map(f).sum() };
    match w {
        Workload::Chat => {
            let share = d.step_ns as f64 / d.engine_ns().max(1) as f64;
            v.check(
                "guard chat: zero rejections and expiries",
                sum(|r| r.rejected_queue + r.rejected_kv + r.expired) == 0,
                format!(
                    "rejected {} expired {}",
                    sum(|r| r.rejected_queue + r.rejected_kv),
                    sum(|r| r.expired)
                ),
            );
            v.check(
                "guard chat: zero forks and copy-on-write copies",
                d.cow_copies == 0
                    && !p
                        .serve_runs
                        .iter()
                        .any(|r| r.transcript.contains("shared prefix:")),
                format!("cow copies {}", d.cow_copies),
            );
            v.check(
                "guard chat: zero demotions",
                d.async_demoted_pages + d.demoted_int8 + d.demoted_int4 == 0,
                format!(
                    "drained {} inline int8 {} int4 {}",
                    d.async_demoted_pages, d.demoted_int8, d.demoted_int4
                ),
            );
            v.check(
                "guard chat: decode steps >= 85% of engine time",
                share >= 0.85,
                format!("{:.1}%", 100.0 * share),
            );
        }
        Workload::Rag => {
            let forks: u64 = p
                .serve_runs
                .iter()
                .map(|r| r.transcript.matches("] start r").count() as u64)
                .sum();
            let shared = p
                .serve_runs
                .iter()
                .all(|r| r.transcript.contains("shared prefix: 128 tokens"));
            v.check(
                "guard rag: boundary drain demoted pages",
                sum(|r| r.kv_demoted_pages) > 0,
                format!(
                    "{} pages, {} bytes",
                    sum(|r| r.kv_demoted_pages),
                    sum(|r| r.kv_demoted_bytes)
                ),
            );
            v.check(
                "guard rag: every admitted request started as a fork of the shared prefix",
                shared && forks == sum(|r| r.admitted),
                format!("forks {forks} admitted {}", sum(|r| r.admitted)),
            );
            v.check(
                "guard rag: zero KvExhausted failures",
                sum(|r| r.failed) == 0 && d.evict_failures == 0,
                format!(
                    "failed {} evict failures {}",
                    sum(|r| r.failed),
                    d.evict_failures
                ),
            );
        }
        Workload::Prefill => {
            let share = p.prefill_call_ns as f64 / p.wall_ns as f64;
            v.check(
                "guard prefill: prefill_all is the bulk (>= 75%) of timed wall",
                share >= 0.75,
                format!("{:.1}%", 100.0 * share),
            );
        }
    }
}

/// One metric: name, unit, value, and its in-run samples for the report.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    n: u64,
    summary: Option<Summary>,
}

fn metric(name: &'static str, unit: &'static str, value: f64, n: u64) -> Metric {
    Metric {
        name,
        unit,
        value,
        n,
        summary: None,
    }
}

fn metric_of(name: &'static str, unit: &'static str, samples: &[f64], value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        n: samples.len() as u64,
        summary: Summary::of(samples),
    }
}

/// `f` of every sample, for the in-run quartiles.
fn per_sample(p: &Phase, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    p.samples.iter().map(f).collect()
}

/// The end-to-end metrics BENCHMARK.json gates, all defined on every
/// workload.
fn end_to_end(s: &Setup, p: &Phase) -> Vec<Metric> {
    vec![
        metric_of("setup_s", "s", &s.total_s, median(&s.total_s)),
        Metric {
            n: p.decode_tokens(),
            ..metric_of(
                "decode_tok_s",
                "tok/s",
                &per_sample(p, Sample::decode_tok_s),
                p.decode_tok_s(),
            )
        },
        Metric {
            n: p.prompt_tokens(),
            ..metric_of(
                "prefill_tok_s",
                "tok/s",
                &per_sample(p, Sample::prefill_tok_s),
                p.prefill_tok_s(),
            )
        },
        metric(
            "kv_peak_mb",
            "MB",
            p.kv_peak_bytes as f64 / (1 << 20) as f64,
            p.samples.len() as u64,
        ),
        metric("rss_peak_mb", "MB", rss_peak_mb(), 1),
    ]
}

/// Reported beside the gated metrics: defined on one kind of workload
/// only, 0 on a healthy run, or too seed- and machine-sensitive for any
/// bound the gate allows.
fn report_only(w: Workload, p: &Phase) -> Vec<Metric> {
    let mut out = vec![Metric {
        n: p.requests(),
        ..metric_of(
            "req_latency_p50_ms",
            "ms",
            &per_sample(p, |s| s.latency_ms),
            p.req_latency_ms(),
        )
    }];
    if w == Workload::Prefill {
        let mut ttft = p.ttft_ms.clone();
        ttft.sort_by(f64::total_cmp);
        let mut tpot = p.tpot_ms.clone();
        tpot.sort_by(f64::total_cmp);
        out.push(metric_of(
            "ttft_p50_ms",
            "ms",
            &ttft,
            percentile(&ttft, 50.0),
        ));
        out.push(metric_of(
            "ttft_p75_ms",
            "ms",
            &ttft,
            percentile(&ttft, 75.0),
        ));
        out.push(metric_of(
            "tpot_p50_ms",
            "ms",
            &tpot,
            percentile(&tpot, 50.0),
        ));
        out.push(metric_of(
            "tpot_p90_ms",
            "ms",
            &tpot,
            percentile(&tpot, 90.0),
        ));
    }
    out.push(metric(
        "error_rate",
        "ratio",
        p.failed as f64 / p.attempted.max(1) as f64,
        p.attempted,
    ));
    out
}

/// Per-layer metrics from the traced phase.
fn per_layer(
    w: Workload,
    s: &Setup,
    p: &Phase,
    tr: &Tracer,
    probe: &probe::Probe,
    overhead: f64,
) -> Vec<Metric> {
    let d = &p.delta;
    let wall_ms = p.wall_ns as f64 / 1e6;
    // The decode iteration loop: the scheduler on chat/rag; on prefill the
    // benchmark's own wave loop, whose iterations are its batch calls.
    let (iterations, engine_ms, queue_max, batch_max, lat50, lat99, reserved) = match w {
        Workload::Chat | Workload::Rag => {
            let runs = &p.serve_runs;
            let max =
                |f: fn(&tender::serve::ServeReport) -> u64| runs.iter().map(f).max().unwrap_or(0);
            (
                runs.iter().map(|r| r.iterations).sum::<u64>(),
                d.engine_ns() as f64 / 1e6,
                max(|r| r.queue_depth_max),
                max(|r| r.batch_occupancy_max),
                max(|r| r.latency_iters_p50),
                max(|r| r.latency_iters_p99),
                max(|r| r.kv_reserved_peak),
            )
        }
        Workload::Prefill => {
            let calls = tr
                .spans()
                .iter()
                .filter(|s| s.name.starts_with("engine."))
                .count() as u64;
            (
                calls,
                (tr.total_ns("engine.prefill_all") + tr.total_ns("engine.try_step_all")) as f64
                    / 1e6,
                0,
                workloads::WAVE_SESSIONS as u64,
                workloads::PREFILL_DECODE as u64,
                workloads::PREFILL_DECODE as u64,
                0,
            )
        }
    };
    let serve_self_ms = (wall_ms - engine_ms).max(0.0);
    let bench_self_ms = tr.self_ns("bench.workload") as f64 / 1e6;
    let threads = pool::current_threads() as f64;
    let c = |x: u64| x as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        metric_of(
            "setup.experiment_s",
            "s",
            &s.experiment_s,
            median(&s.experiment_s),
        ),
        metric_of(
            "setup.quantize_s",
            "s",
            &s.quantize_s,
            median(&s.quantize_s),
        ),
        metric("serve.iterations", "count", c(iterations), 1),
        metric(
            "serve.iter_ms",
            "ms",
            ratio(wall_ms, c(iterations)),
            iterations,
        ),
        metric("serve.self_ms", "ms", serve_self_ms, 1),
        metric("serve.queue_depth_max", "count", c(queue_max), 1),
        metric("serve.batch_occupancy_max", "count", c(batch_max), 1),
        metric("serve.latency_iters_p50", "count", c(lat50), 1),
        metric("serve.latency_iters_p99", "count", c(lat99), 1),
        metric("serve.kv_reserved_peak_bytes", "bytes", c(reserved), 1),
        metric("engine.self_ms", "ms", engine_ms, 1),
        metric(
            "engine.step_ms_mean",
            "ms",
            ratio(c(d.step_ns), c(d.decode_steps)) / 1e6,
            d.decode_steps,
        ),
        metric(
            "engine.prefill_ms_per_tok",
            "ms",
            ratio(c(d.prefill_ns), c(d.prefill_tokens)) / 1e6,
            d.prefill_tokens,
        ),
        metric(
            "engine.macs_per_step",
            "count",
            ratio(c(d.decode_macs), c(d.decode_steps)),
            d.decode_steps,
        ),
        metric(
            "engine.ns_per_mac",
            "ns",
            ratio(c(d.step_ns), c(d.decode_macs)),
            d.decode_steps,
        ),
        metric("engine.kv_int_dot_macs", "count", c(d.kv_int_dot_macs), 1),
        metric("engine.kv_requants", "count", c(d.kv_requants), 1),
        metric("arena.page_allocs", "count", c(d.page_allocs), 1),
        metric("arena.cow_copies", "count", c(d.cow_copies), 1),
        metric(
            "arena.async_demoted_pages",
            "count",
            c(d.async_demoted_pages),
            1,
        ),
        metric(
            "arena.async_demoted_bytes",
            "bytes",
            c(d.async_demoted_bytes),
            1,
        ),
        metric("arena.alloc_retries", "count", c(d.alloc_retries), 1),
        metric("arena.evict_failures", "count", c(d.evict_failures), 1),
        metric(
            "arena.demotion_queue_peak",
            "count",
            c(m::kv_arena::DEMOTION_QUEUE_PEAK.get()),
            1,
        ),
        metric("arena.shard_contention", "count", c(d.shard_contention), 1),
        metric("kernel.chunks_fast_path", "count", c(d.chunks_fast_path), 1),
        metric(
            "kernel.fast_path_share",
            "ratio",
            ratio(
                c(d.chunks_fast_path),
                c(d.chunks_fast_path + d.chunks_checked),
            ),
            d.chunks_fast_path + d.chunks_checked,
        ),
        metric("kernel.overflow_events", "count", c(d.overflow_events), 1),
        metric("kernel.saturated_values", "count", c(d.saturated_values), 1),
        metric("quant.tender_1row_us", "us", probe.tender_1row_us, 1),
        metric("quant.f32_1row_us", "us", probe.f32_1row_us, 1),
        metric(
            "quant.tender_over_f32_1row",
            "ratio",
            ratio(probe.tender_1row_us, probe.f32_1row_us),
            1,
        ),
        metric(
            "quant.tender_rows_us_per_row",
            "us",
            probe.tender_rows_us_per_row,
            1,
        ),
        metric(
            "quant.f32_rows_us_per_row",
            "us",
            probe.f32_rows_us_per_row,
            1,
        ),
        metric("gemm.reference_gemms", "count", c(d.reference_gemms), 1),
        metric("gemm.blocked_gemms", "count", c(d.blocked_gemms), 1),
        metric("gemm.tiles_dispatched", "count", c(d.tiles_dispatched), 1),
        metric("pool.parallel_items", "count", c(d.parallel_items), 1),
        metric("pool.inline_items", "count", c(d.inline_items), 1),
        metric(
            "pool.busy_share",
            "ratio",
            ratio(c(d.busy_ns), threads * c(p.wall_ns)),
            1,
        ),
        metric("bench.self_ms", "ms", bench_self_ms, 1),
        metric("trace.overhead_share", "ratio", overhead, 1),
    ]
}

fn print_metrics(title: &str, ms: &[Metric]) {
    println!("{title}");
    for mt in ms {
        match mt.summary {
            Some(s) => println!(
                "  {:<30} {:>14.4} {:<6} n={:<7} median {:.4} q1 {:.4} q3 {:.4}",
                mt.name, mt.value, mt.unit, mt.n, s.median, s.q1, s.q3
            ),
            None => println!(
                "  {:<30} {:>14.4} {:<6} n={}",
                mt.name, mt.value, mt.unit, mt.n
            ),
        }
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|mt| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(mt.name),
                if mt.value.is_finite() { mt.value } else { 0.0 },
                json_str(mt.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload chat|rag|prefill --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    // A traced run splits its time between the untraced and the traced
    // phase, so it takes about as long as an untraced run.
    let budget = Duration::from_secs(args.seconds) / if args.trace { 2 } else { 1 };
    println!("provenance: {}", provenance(&args));

    let mut tr = Tracer::new(args.trace);
    let s = setup(&mut tr);
    let qm = &s.qm;

    warm_up(qm);
    // Reset the process-global metrics before each phase, so no counter
    // delta mixes set-up, warm-up or another phase into this one.
    m::reset_all();
    let plain = workloads::run_phase(w, qm, args.seed, budget, &mut Tracer::new(false));

    let mut v = Verdicts::default();
    check_outputs(w, args.seed, &plain, qm, &mut v, "untraced");
    check_guards(w, &plain, &mut v);
    if w == Workload::Prefill {
        let waves = workloads::prefill_waves(args.seed, qm.weights().shape.vocab);
        let solo = workloads::solo_wave_digest(qm, &waves[0]);
        v.check(
            "untraced: wave 0 logits equal a solo DecodeSession replay",
            solo == plain.samples[0].digest,
            format!("batched {:016x} solo {solo:016x}", plain.samples[0].digest),
        );
    }

    let e2e = end_to_end(&s, &plain);
    let extra = report_only(w, &plain);
    println!(
        "workload {}: {} samples over {} input sets in {:.2} s; attempted {} failed {} (error_rate {})",
        w.name(),
        plain.samples.len(),
        plain.sets,
        plain.wall_ns as f64 / 1e9,
        plain.attempted,
        plain.failed,
        plain.failed as f64 / plain.attempted.max(1) as f64
    );
    let walls: Vec<String> = plain
        .samples
        .iter()
        .map(|s| format!("{}:{:.3}", s.set, s.wall_ns as f64 / 1e9))
        .collect();
    println!("sample walls (set:s): {}", walls.join(" "));
    print_metrics("end-to-end (untraced):", &e2e);
    print_metrics("reported, not gated:", &extra);
    if w != Workload::Prefill {
        println!(
            "  ttft_p50_ms ttft_p75_ms tpot_p50_ms tpot_p90_ms: n/a on {} \
             (the scheduler exposes no per-request first-token or inter-token time)",
            w.name()
        );
    }

    let mut out_metrics = e2e;
    if args.trace {
        m::reset_all();
        let traced = workloads::run_phase(w, qm, args.seed, budget, &mut tr);
        check_outputs(w, args.seed, &traced, qm, &mut v, "traced");
        v.check(
            "traced output digest equals untraced",
            traced.output_digest() == plain.output_digest(),
            format!("{:016x}", traced.output_digest()),
        );
        let overhead = 1.0 - traced.decode_tok_s() / plain.decode_tok_s();
        let pr = probe::run(&s.exp, SCHEME, &mut tr);
        let layers = per_layer(w, &s, &traced, &tr, &pr, overhead);
        println!(
            "tracing overhead: decode_tok_s {:.3} traced vs {:.3} untraced ({:+.2}%)",
            traced.decode_tok_s(),
            plain.decode_tok_s(),
            100.0 * overhead
        );
        println!("probe site: {} (block of {} rows)", pr.site, pr.block_rows);
        println!("self time by layer (traced phase and probe):");
        let spans_ms = |prefix: &str| {
            tr.spans()
                .iter()
                .filter(|s| s.name.starts_with(prefix))
                .map(|s| s.dur_ns() as f64 / 1e6)
                .sum::<f64>()
        };
        let value = |name: &str| {
            layers
                .iter()
                .find(|mt| mt.name == name)
                .map_or(0.0, |mt| mt.value)
        };
        for (layer, ms) in [
            ("setup", spans_ms("setup.")),
            ("serve", value("serve.self_ms")),
            ("engine", value("engine.self_ms")),
            ("bench", value("bench.self_ms")),
            ("probe", spans_ms("probe.")),
        ] {
            println!("  {layer:<8} {ms:>12.3} ms");
        }
        print_metrics("per-layer (traced):", &layers);
        let path =
            Path::new(".bench_out").join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
            Err(e) => v.check("span file written", false, e.to_string()),
        }
        out_metrics = layers;
    }

    println!("checks:");
    for (name, ok, detail) in &v.0 {
        println!("  [{}] {name}: {detail}", if *ok { "ok" } else { "FAIL" });
    }
    let correct = v.all_pass();
    println!(
        "{}",
        result_json(correct, plain.attempted, plain.failed, &out_metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
