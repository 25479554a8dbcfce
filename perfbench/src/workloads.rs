//! The three workloads, each a timed phase over the program's public API:
//!
//! * `chat` and `rag` drive `serve::Scheduler::run`, alternating two seeded
//!   traffic sets until the time is up;
//! * `prefill` drives `engine::BatchEngine::{prefill_all, try_step_all}`
//!   directly, in waves of two sessions on one shared arena.
//!
//! Every phase also collects what its output checks and workload guards
//! need; `main` turns that into pass/fail verdicts.

use std::time::{Duration, Instant};

use tender::faults::hash_bytes;
use tender::metrics as m;
use tender::model::engine::{greedy_token, BatchEngine, DecodeSession, KvCacheMode, ModelRef};
use tender::model::{ArenaConfig, KvArena, ModelShape, QuantizedModel};
use tender::serve::{Scheduler, ServeConfig, ServeReport};
use tender::sim::generation::{decode_step_macs, kv_int_dot_macs};
use tender::tensor::rng::DetRng;
use tender::tensor::Matrix;

use crate::trace::{Snap, Tracer};

/// KV-cache mode of every workload.
pub const KV_MODE: KvCacheMode = KvCacheMode::Int8;

/// A named workload; see `BENCHMARK.json` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Chat,
    Rag,
    Prefill,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "chat" => Some(Self::Chat),
            "rag" => Some(Self::Rag),
            "prefill" => Some(Self::Prefill),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Chat => "chat",
            Self::Rag => "rag",
            Self::Prefill => "prefill",
        }
    }

    /// Transcript (serve) or logits (prefill) digest recorded at
    /// [`DEFAULT_SEED`]; a numerics change that alters any output moves it.
    pub fn recorded_digest(self) -> u64 {
        match self {
            Self::Chat => 0x41d4_c89b_53b9_7657,
            Self::Rag => 0xfaa0_4122_aa64_12b6,
            Self::Prefill => 0x179a_3132_234a_2fb1,
        }
    }
}

/// The seed the recorded digests were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// Requests per `Scheduler::run` on the serve workloads.
pub const SERVE_REQUESTS: usize = 12;
/// Shared system-prompt tokens on `rag`.
pub const RAG_PREFIX: usize = 128;
/// Hard byte cap on `rag`'s shared arena: about half the uncapped peak,
/// so the boundary drain demotes pages every iteration yet every request
/// still completes.
pub const RAG_ARENA_BYTES: u64 = 3 << 19;
/// Sessions per `prefill` wave.
pub const WAVE_SESSIONS: usize = 2;
/// Distinct waves in one `prefill` cycle.
pub const WAVES_PER_CYCLE: usize = 12;
/// Inclusive prompt-length range of `prefill` requests.
pub const PREFILL_PROMPT: (usize, usize) = (64, 192);
/// Decode tokens each `prefill` request emits (the first comes from the
/// prefill logits, the rest from `try_step_all`).
pub const PREFILL_DECODE: usize = 8;

/// Traffic sets a serve phase alternates between.
pub const TRAFFIC_SETS: usize = 2;

/// Arrival seed of traffic set `set` at run seed `seed`.
pub fn traffic_seed(seed: u64, set: usize) -> u64 {
    hash_bytes(&[seed, set as u64].map(u64::to_le_bytes).concat())
}

/// The scheduler configuration of a serve workload; its traffic comes
/// from `arrival_seed`.
pub fn serve_config(w: Workload, arrival_seed: u64) -> ServeConfig {
    // Prefill chunk and page rows stay at the serving defaults.
    let mut cfg = ServeConfig::new(SERVE_REQUESTS, arrival_seed);
    cfg.kv_mode = KV_MODE;
    cfg.max_batch = 8;
    cfg.max_arrival_gap = 4;
    cfg.queue_cap = SERVE_REQUESTS;
    cfg.deadline_steps = u64::MAX;
    cfg.kv_budget_bytes = u64::MAX;
    cfg.kv_arena_bytes = u64::MAX;
    cfg.prompt_len = (8, 32);
    match w {
        Workload::Chat => cfg.decode_len = (16, 48),
        Workload::Rag => {
            cfg.decode_len = (32, 64);
            cfg.shared_prefix = RAG_PREFIX;
            cfg.kv_arena_bytes = RAG_ARENA_BYTES;
            cfg.kv_watermark = 0.5;
        }
        Workload::Prefill => unreachable!("prefill does not use the scheduler"),
    }
    cfg
}

/// One `prefill` wave: a prompt per session.
pub fn prefill_waves(seed: u64, vocab: usize) -> Vec<Vec<Vec<usize>>> {
    let mut rng = DetRng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let (lo, hi) = PREFILL_PROMPT;
    (0..WAVES_PER_CYCLE)
        .map(|_| {
            (0..WAVE_SESSIONS)
                .map(|_| {
                    let len = lo + rng.below(hi - lo + 1);
                    (0..len).map(|_| rng.below(vocab)).collect()
                })
                .collect()
        })
        .collect()
}

/// Folds a logits matrix into a running FNV-1a digest (over the `to_bits`
/// of every value, row by row).
pub fn fold_logits(digest: u64, logits: &Matrix, buf: &mut Vec<u8>) -> u64 {
    buf.clear();
    buf.extend_from_slice(&digest.to_le_bytes());
    for v in logits.as_slice() {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    hash_bytes(buf)
}

/// One measured unit of work: a scheduler run (serve) or a wave (prefill).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The inputs it ran: the traffic set, or the wave's index in a cycle.
    /// Samples of one set repeat the same work.
    pub set: usize,
    pub wall_ns: u64,
    pub decode_tokens: u64,
    pub prompt_tokens: u64,
    /// Time of the engine calls that ingested `prompt_tokens`.
    pub prompt_ns: u64,
    /// Request latency, ms: the run's `serve::LATENCY_P50_NS`, or the
    /// wave's wall time (every request of a wave ends with it).
    pub latency_ms: f64,
    /// Requests the sample served.
    pub requests: u64,
    /// Digest of its output: the transcript, or the wave's logits.
    pub digest: u64,
}

impl Sample {
    pub fn decode_tok_s(&self) -> f64 {
        self.decode_tokens as f64 / (self.wall_ns as f64 / 1e9)
    }

    pub fn prefill_tok_s(&self) -> f64 {
        self.prompt_tokens as f64 / (self.prompt_ns as f64 / 1e9)
    }
}

/// Everything one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Distinct input sets the samples cycle through.
    pub sets: usize,
    pub samples: Vec<Sample>,
    /// Wall time of the whole timed phase.
    pub wall_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    pub kv_peak_bytes: u64,
    /// Counter deltas over the whole phase.
    pub delta: Snap,
    /// Serve: each scheduler run's report.
    pub serve_runs: Vec<ServeReport>,
    /// Prefill: duration of each `prefill_all` (per request) and each
    /// `try_step_all` call, ms.
    pub ttft_ms: Vec<f64>,
    pub tpot_ms: Vec<f64>,
    /// Prefill: total wall inside `prefill_all`.
    pub prefill_call_ns: u64,
    /// Prefill: decode MACs / integer KV MACs the simulator predicts for
    /// the steps run, summed over the phase.
    pub predicted_macs: u64,
    pub predicted_kv_int_macs: u64,
    /// Prefill: sessions whose `try_step_all` slot returned `Err`.
    pub step_errors: u64,
}

impl Phase {
    /// Median of `f` over the samples of each set, in set order. Each set
    /// repeats the same work, so one slow or fast sample does not move it.
    fn per_set_median(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        (0..self.sets)
            .map(|set| {
                let xs: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|s| s.set == set)
                    .map(&f)
                    .collect();
                crate::stats::median(&xs)
            })
            .collect()
    }

    /// The first sample of each set (its deterministic token counts).
    fn firsts(&self) -> impl Iterator<Item = &Sample> {
        (0..self.sets).filter_map(|set| self.samples.iter().find(|s| s.set == set))
    }

    /// Decode tokens of one pass over every set ÷ the sum of the sets'
    /// median wall times.
    pub fn decode_tok_s(&self) -> f64 {
        let tokens: u64 = self.firsts().map(|s| s.decode_tokens).sum();
        let secs: f64 = self
            .per_set_median(|s| s.wall_ns as f64)
            .iter()
            .sum::<f64>()
            / 1e9;
        tokens as f64 / secs
    }

    /// Prompt tokens of one pass over every set ÷ the sum of the sets'
    /// median prompt-ingestion times.
    pub fn prefill_tok_s(&self) -> f64 {
        let tokens: u64 = self.firsts().map(|s| s.prompt_tokens).sum();
        let secs: f64 = self
            .per_set_median(|s| s.prompt_ns as f64)
            .iter()
            .sum::<f64>()
            / 1e9;
        tokens as f64 / secs
    }

    /// Median over sets of each set's median request latency.
    pub fn req_latency_ms(&self) -> f64 {
        crate::stats::median(&self.per_set_median(|s| s.latency_ms))
    }

    pub fn decode_tokens(&self) -> u64 {
        self.samples.iter().map(|s| s.decode_tokens).sum()
    }

    pub fn prompt_tokens(&self) -> u64 {
        self.samples.iter().map(|s| s.prompt_tokens).sum()
    }

    pub fn requests(&self) -> u64 {
        self.samples.iter().map(|s| s.requests).sum()
    }

    /// Whether every sample reproduced the output of the first sample of
    /// its set.
    pub fn repeats_agree(&self) -> bool {
        self.samples.iter().all(|s| {
            self.firsts()
                .find(|f| f.set == s.set)
                .is_some_and(|f| f.digest == s.digest)
        })
    }

    /// One digest over the outputs of every set, in set order.
    pub fn output_digest(&self) -> u64 {
        let bytes: Vec<u8> = self.firsts().flat_map(|s| s.digest.to_le_bytes()).collect();
        hash_bytes(&bytes)
    }
}

/// Runs one timed phase of `w` for at least `budget` and until every input
/// set has run twice. Metrics must be reset first.
pub fn run_phase(
    w: Workload,
    qm: &QuantizedModel,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
) -> Phase {
    match w {
        Workload::Chat | Workload::Rag => serve_phase(w, qm, seed, budget, tracer),
        Workload::Prefill => prefill_phase(qm, seed, budget, tracer),
    }
}

fn serve_phase(
    w: Workload,
    qm: &QuantizedModel,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
) -> Phase {
    // Scheduler runs alternate between the traffic sets, so a phase
    // covers more of the seed's traffic and every set repeats.
    let mut p = Phase {
        sets: TRAFFIC_SETS,
        ..Phase::default()
    };
    let cfgs: Vec<ServeConfig> = (0..TRAFFIC_SETS)
        .map(|set| serve_config(w, traffic_seed(seed, set)))
        .collect();
    let before = Snap::take();
    let t0 = Instant::now();
    tracer.span("bench.workload", 0, |tr| {
        let mut i = 0;
        while i < 2 * TRAFFIC_SETS || t0.elapsed() < budget {
            let set = i % TRAFFIC_SETS;
            let cfg = &cfgs[set];
            let counters = Snap::take();
            let start = Instant::now();
            let report = tr.call("serve.run", i as u64, || {
                Scheduler::new(qm, cfg.clone()).run()
            });
            let wall_ns = start.elapsed().as_nanos() as u64;
            let d = Snap::take().since(&counters);
            p.attempted += cfg.requests as u64;
            p.failed += report.rejected_queue
                + report.rejected_kv
                + report.expired
                + report.failed
                + report.unresolved;
            // Prompt tokens the engine's prefill calls ingested: each
            // unshared prompt's first chunk, or rag's shared prefix.
            p.samples.push(Sample {
                set,
                wall_ns,
                decode_tokens: report.decode_tokens,
                prompt_tokens: d.prefill_tokens,
                prompt_ns: d.prefill_ns,
                latency_ms: m::serve::LATENCY_P50_NS.get() as f64 / 1e6,
                requests: cfg.requests as u64,
                digest: hash_bytes(report.transcript.as_bytes()),
            });
            p.serve_runs.push(report);
            i += 1;
        }
    });
    p.wall_ns = t0.elapsed().as_nanos() as u64;
    p.delta = Snap::take().since(&before);
    p.kv_peak_bytes = m::engine::KV_CACHE_PEAK_BYTES.get();
    p
}

fn prefill_phase(qm: &QuantizedModel, seed: u64, budget: Duration, tracer: &mut Tracer) -> Phase {
    let shape = qm.weights().shape.clone();
    let waves = prefill_waves(seed, shape.vocab);
    let arena = KvArena::new(ArenaConfig::default());
    let mut p = Phase {
        sets: WAVES_PER_CYCLE,
        ..Phase::default()
    };
    let mut buf = Vec::new();
    let before = Snap::take();
    let t0 = Instant::now();
    tracer.span("bench.workload", 0, |tr| {
        // Two whole cycles, so every wave repeats; then wave by wave until
        // the time is up.
        let mut i = 0usize;
        while i < 2 * WAVES_PER_CYCLE || t0.elapsed() < budget {
            let wi = i % WAVES_PER_CYCLE;
            let sample = run_wave(
                qm, &shape, &arena, &waves[wi], i as u64, tr, &mut p, &mut buf,
            );
            p.samples.push(Sample { set: wi, ..sample });
            i += 1;
        }
    });
    p.wall_ns = t0.elapsed().as_nanos() as u64;
    p.delta = Snap::take().since(&before);
    p.kv_peak_bytes = m::engine::KV_CACHE_PEAK_BYTES.get();
    p
}

/// One wave: prefill every session, then step them together until each
/// has emitted [`PREFILL_DECODE`] tokens.
#[allow(clippy::too_many_arguments)]
fn run_wave(
    qm: &QuantizedModel,
    shape: &ModelShape,
    arena: &KvArena,
    prompts: &[Vec<usize>],
    id: u64,
    tr: &mut Tracer,
    p: &mut Phase,
    buf: &mut Vec<u8>,
) -> Sample {
    let wave_start = Instant::now();
    let sessions = prompts
        .iter()
        .map(|_| DecodeSession::with_arena(ModelRef::from(qm), KV_MODE, arena))
        .collect();
    let mut engine = BatchEngine::new(sessions);
    let mut digest = 0u64;
    p.attempted += prompts.len() as u64;

    let t = Instant::now();
    let logits = tr
        .call("engine.prefill_all", id, || engine.prefill_all(prompts))
        .expect("one prompt per session");
    let prompt_ns = t.elapsed().as_nanos() as u64;
    p.prefill_call_ns += prompt_ns;
    p.ttft_ms
        .extend(std::iter::repeat_n(prompt_ns as f64 / 1e6, prompts.len()));
    let mut lens: Vec<usize> = prompts.iter().map(Vec::len).collect();
    let mut tokens: Vec<usize> = logits
        .iter()
        .zip(&lens)
        .map(|(l, &len)| {
            digest = fold_logits(digest, l, buf);
            greedy_token(l, l.rows() - 1, len, shape.vocab)
        })
        .collect();
    let mut decode_tokens = tokens.len() as u64;

    let mut wave_ok = true;
    for _ in 1..PREFILL_DECODE {
        let t = Instant::now();
        let results = tr
            .call("engine.try_step_all", id, || engine.try_step_all(&tokens))
            .expect("one token per session");
        p.tpot_ms.push(t.elapsed().as_nanos() as f64 / 1e6);
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok(l) => {
                    lens[i] += 1;
                    digest = fold_logits(digest, &l, buf);
                    tokens[i] = greedy_token(&l, 0, lens[i], shape.vocab);
                    decode_tokens += 1;
                    p.predicted_macs += shape.layers as u64 * decode_step_macs(shape, lens[i], 1);
                    p.predicted_kv_int_macs +=
                        shape.layers as u64 * kv_int_dot_macs(shape, lens[i], 1, KV_MODE);
                }
                Err(_) => {
                    p.step_errors += 1;
                    wave_ok = false;
                }
            }
        }
        if !wave_ok {
            break;
        }
    }
    if !wave_ok {
        p.failed += prompts.len() as u64;
    }
    let wall_ns = wave_start.elapsed().as_nanos() as u64;
    Sample {
        set: 0,
        wall_ns,
        decode_tokens,
        prompt_tokens: prompts.iter().map(|x| x.len() as u64).sum(),
        prompt_ns,
        latency_ms: wall_ns as f64 / 1e6,
        requests: prompts.len() as u64,
        digest,
    }
}

/// Replays one `prefill` wave with each prompt in its own solo
/// `DecodeSession` (private arena, no pool fan-out across sessions) and
/// returns the digest the batched wave must match: a batched session's
/// rows may not depend on its neighbours.
pub fn solo_wave_digest(qm: &QuantizedModel, prompts: &[Vec<usize>]) -> u64 {
    let vocab = qm.weights().shape.vocab;
    let mut buf = Vec::new();
    let mut sessions: Vec<DecodeSession<'_>> = prompts
        .iter()
        .map(|_| DecodeSession::with_cache_mode(ModelRef::from(qm), KV_MODE))
        .collect();
    let mut digest = 0u64;
    let mut tokens = Vec::new();
    for (s, prompt) in sessions.iter_mut().zip(prompts) {
        let l = s.prefill(prompt);
        digest = fold_logits(digest, &l, &mut buf);
        tokens.push(greedy_token(&l, l.rows() - 1, prompt.len(), vocab));
    }
    for _ in 1..PREFILL_DECODE {
        for (s, tok) in sessions.iter_mut().zip(tokens.iter_mut()) {
            let l = s.step(*tok).expect("prompts leave room in the window");
            digest = fold_logits(digest, &l, &mut buf);
            *tok = greedy_token(&l, 0, s.len(), vocab);
        }
    }
    digest
}

/// Decode MACs and integer-domain KV MACs the simulator predicts for one
/// scheduler run, reconstructed from its transcript: every request's
/// prompt length and emitted tokens fix the cache length of every
/// successful `step` it made.
pub fn predicted_serve_macs(
    shape: &ModelShape,
    cfg: &ServeConfig,
    report: &ServeReport,
) -> (u64, u64) {
    let mut prompt_len = vec![0usize; report.outcomes.len()];
    let (mut macs, mut int_macs) = (0u64, 0u64);
    let mut add = |len: usize| {
        macs += shape.layers as u64 * decode_step_macs(shape, len, 1);
        int_macs += shape.layers as u64 * kv_int_dot_macs(shape, len, 1, KV_MODE);
    };
    let prefix = cfg.shared_prefix;
    for line in report.transcript.lines() {
        let Some((_, rest)) = line.split_once("] ") else {
            continue;
        };
        if let Some(rest) = rest.strip_prefix("admit r") {
            // "admit r{id} (prompt {p}, decode ..."
            let id: usize = field(rest, "");
            prompt_len[id] = field(rest, "(prompt ");
        } else if let Some((id, rest)) =
            rest.strip_prefix('r').and_then(|r| r.split_once(" done: "))
        {
            // "r{id} done: {k} tokens ..."
            let id: usize = id.parse().expect("request id");
            let emitted: usize = field(rest, "");
            let p = prompt_len[id];
            // An unshared prompt's first chunk is one prefill call; every
            // other prompt token (all of them on a fork) is one step.
            let stepped_from = if prefix > 0 { 1 } else { cfg.prefill_chunk + 1 };
            (prefix + stepped_from..=prefix + p).for_each(&mut add);
            // Each emitted token but the last was fed back by one step.
            (prefix + p + 1..prefix + p + emitted).for_each(&mut add);
        }
    }
    (macs, int_macs)
}

/// Parses the unsigned integer that follows `after` in `s`.
fn field(s: &str, after: &str) -> usize {
    let start = s.find(after).expect("transcript field") + after.len();
    s[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("transcript number")
}
