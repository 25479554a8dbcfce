//! Continuous-batching serving layer over the decode engine.
//!
//! The [`Scheduler`] owns a request queue with admission control and runs
//! an iteration loop that mixes **chunked prefill** with in-flight decode
//! steps — the continuous-batching shape real serving systems use.
//! Sessions join the batch the moment a slot frees up and leave the moment
//! they finish; the batch never drains to make room.
//!
//! **Admission control.** Two bounds, both enforced *before* a request
//! allocates anything: a queue-depth cap and a per-mode KV-byte budget.
//! Reservations are priced at **page granularity and grow per step**: a
//! request is admitted against its prompt pages plus one decode page
//! ([`kv_admit_bytes`]), and each decode step that opens a fresh page
//! grows the reservation by one page ([`kv_page_bytes`]) — not the
//! worst-case footprint of prompt + decode target. A request that would
//! exceed either bound at admission is rejected with a typed
//! [`AdmissionError`]; a request whose *growth* exceeds the budget
//! mid-decode completes as `Done { truncated: true }` with the tokens it
//! has. Pages demoted down the arena's quantization ladder shrink the
//! session's measured allocation, and the freed bytes are returned to the
//! budget at the session's next growth check.
//!
//! **Prefix sharing.** With `shared_prefix > 0` the scheduler prefills a
//! seeded system prompt once into a template session on the run's shared
//! [`KvArena`], then starts every request as a copy-on-write fork of the
//! template: the prefix pages are physically resident once, whatever the
//! batch size.
//!
//! **Deadlines.** Every admitted request carries a deadline in scheduler
//! iterations (logical time). Expiry is checked at the top of every
//! iteration — waiting or active, a request past its deadline completes
//! with [`TerminalStatus::DeadlineExceeded`] while the rest of the batch
//! keeps decoding.
//!
//! **Failure isolation.** Each per-session work item runs under
//! `catch_unwind`: a [`StepError`], an injected `pool` task fault (the
//! scheduler treats each per-session work item as a pool task and consults
//! the same `pool` fault site, so chaos plans bite even when the model is
//! too small for the inner GEMMs to dispatch pool items), or any organic
//! panic retires *that* request as [`TerminalStatus::Failed`] — never the
//! batch. A `SequenceFull` mid-decode is not a failure: the rollout
//! truncates at the window (counted in `engine::decode_truncated`) and the
//! request completes as `Done`.
//!
//! **Determinism.** Traffic (arrivals, prompts, decode targets) comes from
//! a [`DetRng`] seeded by the config; scheduling decisions use logical
//! iteration time only; fault decisions are content-keyed. The transcript
//! is therefore byte-identical at any thread count for a fixed config and
//! fault seed. Wall-clock values (latency percentiles in ns, tokens/s) are
//! published to the `metrics::serve` bank for the JSON report and never
//! appear in the transcript.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tender_faults as faults;
use tender_metrics::engine as engine_metrics;
use tender_metrics::serve as metrics;
use tender_model::engine::{drain_demotions, DecodeSession, KvCacheMode, ModelRef, StepError};
use tender_model::shape::ModelShape;
use tender_tensor::arena::DEFAULT_PAGE_ROWS;
use tender_tensor::rng::DetRng;
use tender_tensor::{ArenaConfig, KvArena};

/// Everything the scheduler needs to generate and serve one synthetic run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Total synthetic requests the traffic generator submits.
    pub requests: usize,
    /// Seed for the arrival process, prompts, and decode targets.
    pub arrival_seed: u64,
    /// Per-request deadline in scheduler iterations, measured from
    /// admission. `0` expires everything instantly.
    pub deadline_steps: u64,
    /// Admission bound: maximum requests waiting for a batch slot.
    pub queue_cap: usize,
    /// Admission bound: total KV bytes reservable across waiting + active
    /// requests, priced per arena page — prompt pages plus one decode page
    /// at admission ([`kv_admit_bytes`]), one more page ([`kv_page_bytes`])
    /// each time a rollout opens one.
    pub kv_budget_bytes: u64,
    /// Maximum sessions decoding concurrently (batch slots).
    pub max_batch: usize,
    /// Prompt tokens ingested per request per iteration during prefill.
    pub prefill_chunk: usize,
    /// KV-cache storage mode for every session.
    pub kv_mode: KvCacheMode,
    /// Inclusive prompt-length range for synthetic requests.
    pub prompt_len: (usize, usize),
    /// Inclusive decode-target range for synthetic requests.
    pub decode_len: (usize, usize),
    /// Maximum iterations between consecutive arrivals.
    pub max_arrival_gap: u64,
    /// Rows per KV arena page — the admission pricing unit.
    pub page_rows: usize,
    /// Tokens of seeded system prompt prefilled once and shared
    /// copy-on-write by every request's session (`0` disables sharing).
    pub shared_prefix: usize,
    /// Byte cap on the run's shared KV arena (`u64::MAX` = unbounded).
    /// Distinct from `kv_budget_bytes`: the budget is the admission
    /// bookkeeping bound, the cap is the arena's hard allocation wall
    /// behind the demotion ladder.
    pub kv_arena_bytes: u64,
    /// Demotion watermark on the shared arena, as a fraction of
    /// `kv_arena_bytes` (`1.0` = demote only at the hard cap). Cold
    /// sealed pages above the mark are requantized by the boundary
    /// drain, off the per-step critical path.
    pub kv_watermark: f64,
}

impl ServeConfig {
    /// A config with the serving defaults used by the CLI and the chaos
    /// experiment: small batch, chunked prefill, effectively-unbounded KV
    /// budget (callers set a real one to exercise admission).
    pub fn new(requests: usize, arrival_seed: u64) -> Self {
        Self {
            requests,
            arrival_seed,
            deadline_steps: 64,
            queue_cap: 8,
            kv_budget_bytes: u64::MAX,
            max_batch: 4,
            prefill_chunk: 4,
            kv_mode: KvCacheMode::F32,
            prompt_len: (4, 12),
            decode_len: (4, 16),
            max_arrival_gap: 2,
            page_rows: DEFAULT_PAGE_ROWS,
            shared_prefix: 0,
            kv_arena_bytes: u64::MAX,
            kv_watermark: 1.0,
        }
    }
}

/// One synthetic request produced by [`synthetic_traffic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Stable identity (submission order).
    pub id: usize,
    /// Iteration at which the request reaches the scheduler.
    pub arrival: u64,
    /// Prompt token ids (all within the model's vocab).
    pub prompt: Vec<usize>,
    /// Decode tokens requested. May exceed the remaining context window —
    /// such rollouts truncate at the window and still complete.
    pub decode_target: usize,
}

/// Why admission control refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The waiting queue is at its configured depth cap.
    QueueFull {
        /// The configured cap.
        cap: usize,
    },
    /// Admitting the request would exceed the KV-byte budget.
    KvBudgetExceeded {
        /// Worst-case bytes the request would reserve.
        needed: u64,
        /// Bytes still unreserved under the budget.
        available: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QueueFull { cap } => write!(f, "queue full (cap {cap})"),
            Self::KvBudgetExceeded {
                needed,
                available,
                budget,
            } => write!(
                f,
                "kv budget (need {needed}, available {available}, budget {budget})"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// How a request ended. Every submitted request reaches exactly one of
/// these — the scheduler's liveness contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TerminalStatus {
    /// The request decoded its target (or as much as the context window
    /// allowed — `truncated` marks window-capped rollouts).
    Done {
        /// Decode tokens emitted.
        tokens: usize,
        /// True when the rollout hit `SequenceFull` before its target.
        truncated: bool,
    },
    /// Admission control refused the request; it never held a session.
    Rejected(AdmissionError),
    /// The per-request deadline passed before completion.
    DeadlineExceeded {
        /// Decode tokens emitted before expiry.
        decoded: usize,
    },
    /// The request's session failed in isolation (a `StepError` other than
    /// window exhaustion, or a panic caught at the session boundary).
    Failed {
        /// Deterministic description of the failure.
        reason: String,
    },
}

/// One request's final record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOutcome {
    /// The request's id.
    pub id: usize,
    /// How it ended.
    pub status: TerminalStatus,
    /// Iteration of admission (`None` for rejected requests).
    pub admitted_at: Option<u64>,
    /// Iteration at which the terminal status was assigned.
    pub finished_at: u64,
}

/// Aggregate result of one scheduler run. All fields are pure functions of
/// the config and fault seed (wall-clock values go to the metrics bank
/// only), so two runs at any thread count produce identical reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// The deterministic, line-oriented event log of the run.
    pub transcript: String,
    /// Per-request outcomes in id order.
    pub outcomes: Vec<RequestOutcome>,
    /// Scheduler iterations executed.
    pub iterations: u64,
    /// Iterations whose work was dropped by an injected `sched` fault.
    pub stalled_iterations: u64,
    /// Requests past admission control.
    pub admitted: u64,
    /// Requests refused for queue depth.
    pub rejected_queue: u64,
    /// Requests refused for KV budget.
    pub rejected_kv: u64,
    /// Admitted requests that completed (`Done`, truncations included).
    pub completed: u64,
    /// Completions that truncated at the context window.
    pub truncated: u64,
    /// Admitted requests that hit their deadline.
    pub expired: u64,
    /// Admitted requests that failed in isolation.
    pub failed: u64,
    /// Requests left unresolved by the safety cap (0 on any healthy run).
    pub unresolved: u64,
    /// Decode tokens emitted across all requests.
    pub decode_tokens: u64,
    /// Deepest waiting queue observed.
    pub queue_depth_max: u64,
    /// Most sessions simultaneously active.
    pub batch_occupancy_max: u64,
    /// Peak KV bytes reserved under the admission budget.
    pub kv_reserved_peak: u64,
    /// Pages requantized down the ladder by the boundary drain.
    pub kv_demoted_pages: u64,
    /// Arena bytes freed by boundary-drain demotion.
    pub kv_demoted_bytes: u64,
    /// p50 per-request latency, admission → terminal, in iterations.
    pub latency_iters_p50: u64,
    /// p99 per-request latency, admission → terminal, in iterations.
    pub latency_iters_p99: u64,
}

impl ServeReport {
    /// The pass/fail liveness verdict the chaos harness asserts on.
    pub fn verdict(&self) -> String {
        if self.unresolved == 0 {
            "all admitted requests reached a terminal status".into()
        } else {
            format!("STUCK ({} unresolved)", self.unresolved)
        }
    }
}

/// Worst-case KV-cache bytes a session holding `positions` cached
/// positions costs in `mode` — the *flat* (pre-paging) reservation model,
/// kept as the baseline the page-granular admission is measured against.
/// Mirrors the cache's row accounting: 2 planes (K and V) per layer per
/// head, each `position_bytes` per position plus a constant per-head
/// quantization-metadata overhead.
pub fn kv_reserve_bytes(shape: &ModelShape, mode: KvCacheMode, positions: usize) -> u64 {
    let dh = shape.head_dim();
    let planes = 2 * (shape.layers * shape.heads) as u64;
    planes * (mode.position_bytes(dh) * positions as u64 + mode.head_overhead_bytes(dh))
}

/// Allocated bytes of **one arena page per plane** across the whole model
/// (2 planes per layer per head), in `mode` at `page_rows` rows — the
/// admission-control pricing unit. Quantized pages carry one `f32` scale
/// snapshot per group.
pub fn kv_page_bytes(shape: &ModelShape, mode: KvCacheMode, page_rows: usize) -> u64 {
    let dh = shape.head_dim();
    let planes = 2 * (shape.layers * shape.heads) as u64;
    let scales = match mode {
        KvCacheMode::F32 => 0,
        _ => mode.num_groups() as u64 * 4,
    };
    planes * (page_rows as u64 * mode.position_bytes(dh) + scales)
}

/// Bytes a request reserves at admission: the pages its own prompt rows
/// occupy past the fully-sealed shared-prefix pages, plus one decode page
/// of headroom, plus the per-plane quantization constants its session
/// carries. Further decode pages are reserved as the rollout grows.
pub fn kv_admit_bytes(
    shape: &ModelShape,
    mode: KvCacheMode,
    page_rows: usize,
    shared_prefix: usize,
    prompt_len: usize,
) -> u64 {
    let page_rows = page_rows.max(1);
    // Sealed prefix pages are shared copy-on-write; the prefix tail page
    // (if partial) is copied by the fork's first append, so it bills to
    // the request.
    let shared_pages = shared_prefix / page_rows;
    let own_pages = (shared_prefix + prompt_len).div_ceil(page_rows) - shared_pages;
    kv_reserve_bytes(shape, mode, 0)
        + kv_page_bytes(shape, mode, page_rows) * (own_pages as u64 + 1)
}

/// Generates the run's synthetic traffic: a seeded arrival process with
/// bounded inter-arrival gaps, prompts drawn uniformly from the vocab, and
/// decode targets in the configured range. Every 8th request deliberately
/// overshoots the context window so window truncation is exercised under
/// load. Pure function of (config, shape) — byte-identical at any thread
/// count.
pub fn synthetic_traffic(cfg: &ServeConfig, shape: &ModelShape) -> Vec<Request> {
    let mut rng = DetRng::new(cfg.arrival_seed);
    let max_prompt = shape.max_seq.saturating_sub(2 + cfg.shared_prefix).max(1);
    let (plo, phi) = cfg.prompt_len;
    let (dlo, dhi) = cfg.decode_len;
    let mut arrival = 0u64;
    let mut out = Vec::with_capacity(cfg.requests);
    for id in 0..cfg.requests {
        if id > 0 {
            arrival += rng.below(cfg.max_arrival_gap as usize + 1) as u64;
        }
        let plen = (plo + rng.below(phi.saturating_sub(plo) + 1)).clamp(1, max_prompt);
        let prompt: Vec<usize> = (0..plen).map(|_| rng.below(shape.vocab)).collect();
        let mut decode_target = (dlo + rng.below(dhi.saturating_sub(dlo) + 1)).max(1);
        if id % 8 == 7 {
            decode_target = decode_target.max(shape.max_seq - plen + 2);
        }
        out.push(Request {
            id,
            arrival,
            prompt,
            decode_target,
        });
    }
    out
}

/// Runs `build` (typically scheme calibration + quantization) under
/// `catch_unwind` so an injected fault that panics mid-setup — e.g. a pool
/// task fault during calibration — degrades the serving stack to the
/// caller's fallback model instead of killing the server before it takes
/// a single request. A degraded setup counts one `degraded_sites` and one
/// `fallback_fp16` (the caller's fallback is the unquantized reference
/// model, the ladder's last rung).
pub fn build_or_degrade<T>(build: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(build)) {
        Ok(v) => Some(v),
        Err(_) => {
            tender_metrics::faults::DEGRADED_SITES.incr();
            tender_metrics::faults::FALLBACK_FP16.incr();
            None
        }
    }
}

/// A request that passed admission and is waiting for or holding a slot.
struct Admitted {
    req: Request,
    admitted_at: u64,
    reserve: u64,
    clock: Instant,
}

/// The bound a truncated [`TerminalStatus::Done`] hit, named in its
/// transcript line.
#[derive(Clone, Copy)]
enum Limit {
    KvBudget,
    Window,
}

/// An admitted request bound to a live decode session.
struct Active<'m> {
    adm: Admitted,
    session: DecodeSession<'m>,
    /// Prompt tokens ingested so far.
    fed: usize,
    /// The next token to emit + feed once prefill completes.
    pending: Option<usize>,
    /// Decode tokens emitted.
    emitted: usize,
}

/// The continuous-batching scheduler. See the crate docs for the contract.
pub struct Scheduler<'m> {
    model: ModelRef<'m>,
    cfg: ServeConfig,
}

impl<'m> Scheduler<'m> {
    /// A scheduler serving synthetic traffic against `model`.
    pub fn new(model: impl Into<ModelRef<'m>>, cfg: ServeConfig) -> Self {
        Self {
            model: model.into(),
            cfg,
        }
    }

    /// Runs the whole synthetic workload to completion and returns the
    /// deterministic report. Publishes the `metrics::serve` bank as it
    /// goes (counters inline, gauges at the end).
    pub fn run(&mut self) -> ServeReport {
        let run_start = Instant::now();
        let mut run = Run::new(self.model, self.cfg.clone());
        let mut t = 0u64;
        while run.unresolved() > 0 {
            if t > run.horizon {
                let left = run.unresolved();
                run.line(format!(
                    "[iter {t}] safety horizon reached with {left} unresolved"
                ));
                break;
            }
            run.report.iterations += 1;
            metrics::ITERATIONS.incr();
            run.drain_and_reprice(t);
            run.admit(t);
            run.join(t);
            run.expire(t);
            // Injected scheduler stall: drop this iteration's work.
            // Deadlines (absolute time) keep ticking, so a stalled server
            // degrades to slower service, never to a hang.
            let plan = faults::plan();
            if !run.active.is_empty()
                && plan.as_ref().is_some_and(|p| p.sched_stall(run.run_key, t))
            {
                run.report.stalled_iterations += 1;
                metrics::STALLED_ITERATIONS.incr();
                run.line(format!("[iter {t}] sched stall (injected)"));
            } else {
                run.work(t, plan.as_deref());
            }
            t += 1;
        }
        run.finish(run_start)
    }
}

/// One scheduler run's state. [`Scheduler::run`] drives it phase by phase
/// each iteration; every terminal status goes through [`Run::retire`].
struct Run<'m> {
    model: ModelRef<'m>,
    shape: &'m ModelShape,
    cfg: ServeConfig,
    /// The page arena every session of the run draws from.
    arena: KvArena,
    /// Allocated bytes of one page per plane: the reservation growth unit.
    page_bytes: u64,
    /// The prefilled shared-prefix session every request forks, if any.
    template: Option<DecodeSession<'m>>,
    /// Content-keyed run identity for the `sched` and serve-level `pool`
    /// fault streams: distinct configs fault independently.
    run_key: u64,
    /// Iteration past which the leftovers are reported unresolved.
    horizon: u64,
    pending: VecDeque<Request>,
    waiting: VecDeque<Admitted>,
    active: Vec<Active<'m>>,
    /// KV bytes reserved under the admission budget.
    reserved: u64,
    latencies_ns: Vec<u64>,
    /// The report under construction: transcript, outcomes in terminal
    /// order, and the counters and peaks observed so far.
    report: ServeReport,
}

impl<'m> Run<'m> {
    fn new(model: ModelRef<'m>, cfg: ServeConfig) -> Self {
        let shape = model.shape();
        let header = format!(
            "serve: {} requests, arrival seed {}, deadline {} iters, queue cap {}, \
             kv budget {} bytes, batch {}, prefill chunk {}, kv {}, page rows {}, \
             shared prefix {}, kv watermark {}",
            cfg.requests,
            cfg.arrival_seed,
            cfg.deadline_steps,
            cfg.queue_cap,
            cfg.kv_budget_bytes,
            cfg.max_batch,
            cfg.prefill_chunk,
            cfg.kv_mode.label(),
            cfg.page_rows,
            cfg.shared_prefix,
            cfg.kv_watermark,
        );
        // One shared page arena for every session in the run: forks share
        // prefix pages, demotion (under a capped arena) frees budget.
        // Demotion is deferred: appends only *enqueue* candidates, and the
        // boundary drain requantizes them in clock order — off the
        // per-step critical path, independent of slot interleaving.
        let arena = KvArena::new(ArenaConfig {
            page_rows: cfg.page_rows.max(1),
            capacity_bytes: (cfg.kv_arena_bytes != u64::MAX).then_some(cfg.kv_arena_bytes),
            watermark: cfg.kv_watermark.clamp(0.0, 1.0),
            deferred_demotion: true,
            ..ArenaConfig::default()
        });
        let traffic = synthetic_traffic(&cfg, shape);
        metrics::SUBMITTED.add(traffic.len() as u64);
        // Defensive horizon: admission resolves by the last arrival and
        // deadlines bound every admitted request, so a healthy run always
        // exits well inside this cap. Breaching it marks the leftovers
        // unresolved (a STUCK verdict) instead of hanging.
        let work_bound: u64 = traffic
            .iter()
            .map(|r| (r.prompt.len().div_ceil(cfg.prefill_chunk.max(1)) + r.decode_target) as u64)
            .sum();
        let last_arrival = traffic.last().map_or(0, |r| r.arrival);
        let mut run = Self {
            model,
            shape,
            page_bytes: kv_page_bytes(shape, cfg.kv_mode, cfg.page_rows.max(1)),
            template: None,
            run_key: faults::hash_bytes(header.as_bytes()),
            horizon: last_arrival + cfg.deadline_steps.min(1_000_000) + work_bound * 4 + 16,
            arena,
            pending: traffic.into(),
            waiting: VecDeque::new(),
            active: Vec::new(),
            reserved: 0,
            latencies_ns: Vec::new(),
            report: ServeReport::default(),
            cfg,
        };
        run.line(header);
        if run.cfg.shared_prefix > 0 {
            run.template = run.prefill_template();
        }
        run
    }

    fn line(&mut self, s: String) {
        self.report.transcript.push_str(&s);
        self.report.transcript.push('\n');
    }

    /// Requests not yet terminal: pending, waiting and active.
    fn unresolved(&self) -> usize {
        self.pending.len() + self.waiting.len() + self.active.len()
    }

    fn observe_reserved(&mut self) {
        self.report.kv_reserved_peak = self.report.kv_reserved_peak.max(self.reserved);
        metrics::KV_RESERVED_PEAK_BYTES.observe(self.reserved);
    }

    /// Prefills the seeded system prompt into the template session every
    /// request forks, or records why sharing is off for this run.
    fn prefill_template(&mut self) -> Option<DecodeSession<'m>> {
        let take = self
            .cfg
            .shared_prefix
            .min(self.shape.max_seq.saturating_sub(2))
            .max(1);
        let mut rng = DetRng::new(self.cfg.arrival_seed ^ 0x5eed_caf3);
        let prefix: Vec<usize> = (0..take).map(|_| rng.below(self.shape.vocab)).collect();
        let mut s = DecodeSession::with_arena(self.model, self.cfg.kv_mode, &self.arena);
        match s.try_prefill(&prefix) {
            Ok(_) => {
                let pages = s.cache().capacity() / self.cfg.page_rows.max(1);
                self.line(format!("shared prefix: {take} tokens, {pages} pages/plane"));
                Some(s)
            }
            Err(e) => {
                self.line(format!("shared prefix: disabled ({e})"));
                None
            }
        }
    }

    /// Boundary drain: advances the demotion clock and requantizes queued
    /// cold pages in clock order (off the per-step critical path), then
    /// re-prices every fully-fed session's reservation from the *measured*
    /// arena so demotion-freed bytes flow back into the admission budget
    /// before this iteration's arrivals are priced. The pre-demotion
    /// reservation floor keeps one decode page of headroom plus the
    /// per-plane quantization constants the session carries outside the
    /// arena.
    fn drain_and_reprice(&mut self, t: u64) {
        self.arena.advance_clock();
        let drained = drain_demotions(&self.arena, 0);
        let session_const = kv_reserve_bytes(self.shape, self.cfg.kv_mode, 0);
        let mut reclaimed = 0u64;
        for slot in &mut self.active {
            if slot.fed < slot.adm.req.prompt.len() {
                continue; // footprint not yet measurable
            }
            let floor = slot.session.cache().allocated_bytes() + self.page_bytes + session_const;
            if slot.adm.reserve > floor {
                reclaimed += slot.adm.reserve - floor;
                slot.adm.reserve = floor;
            }
        }
        self.reserved -= self.reserved.min(reclaimed);
        if drained.demoted > 0 {
            self.report.kv_demoted_pages += drained.demoted as u64;
            self.report.kv_demoted_bytes += drained.freed_bytes;
            self.line(format!(
                "[iter {t}] kv drain: {} pages demoted, {} bytes freed, {} bytes reclaimed",
                drained.demoted, drained.freed_bytes, reclaimed
            ));
        }
    }

    /// Arrivals → admission control. A request is admitted or rejected the
    /// iteration it arrives; rejection is typed and immediate, never a
    /// silent drop.
    fn admit(&mut self, t: u64) {
        let prefix_len = self.template.as_ref().map_or(0, DecodeSession::len);
        while let Some(req) = self.pending.pop_front_if(|r| r.arrival <= t) {
            // Page-granular pricing: prompt pages + one decode page, not
            // the worst-case prompt + decode-target footprint. Later
            // decode pages are reserved as the rollout grows.
            let cfg = &self.cfg;
            let need = kv_admit_bytes(
                self.shape,
                cfg.kv_mode,
                cfg.page_rows,
                prefix_len,
                req.prompt.len(),
            );
            let available = cfg.kv_budget_bytes - cfg.kv_budget_bytes.min(self.reserved);
            let refusal = if self.waiting.len() >= cfg.queue_cap {
                Some(AdmissionError::QueueFull { cap: cfg.queue_cap })
            } else {
                (need > available).then_some(AdmissionError::KvBudgetExceeded {
                    needed: need,
                    available,
                    budget: cfg.kv_budget_bytes,
                })
            };
            if let Some(e) = refusal {
                self.retire(t, req.id, None, TerminalStatus::Rejected(e), None);
                continue;
            }
            metrics::ADMITTED.incr();
            self.reserved += need;
            self.observe_reserved();
            self.line(format!(
                "[iter {t}] admit r{} (prompt {}, decode {}, kv {need})",
                req.id,
                req.prompt.len(),
                req.decode_target,
            ));
            self.waiting.push_back(Admitted {
                req,
                admitted_at: t,
                reserve: need,
                clock: Instant::now(),
            });
        }
        self.report.queue_depth_max = self.report.queue_depth_max.max(self.waiting.len() as u64);
        metrics::QUEUE_DEPTH_MAX.observe(self.waiting.len() as u64);
    }

    /// Fills free batch slots from the queue: sessions join mid-flight,
    /// the batch never drains first.
    fn join(&mut self, t: u64) {
        let free = self.cfg.max_batch.saturating_sub(self.active.len());
        let joining: Vec<Admitted> = self.waiting.drain(..free.min(self.waiting.len())).collect();
        for adm in joining {
            self.line(format!("[iter {t}] start r{}", adm.req.id));
            let session = match &self.template {
                Some(tpl) => tpl.fork(),
                None => DecodeSession::with_arena(self.model, self.cfg.kv_mode, &self.arena),
            };
            self.active.push(Active {
                adm,
                session,
                fed: 0,
                pending: None,
                emitted: 0,
            });
        }
        let r = &mut self.report;
        r.batch_occupancy_max = r.batch_occupancy_max.max(self.active.len() as u64);
        metrics::BATCH_OCCUPANCY_MAX.observe(self.active.len() as u64);
    }

    /// Watchdog: expires deadlines, waiting and active alike.
    fn expire(&mut self, t: u64) {
        let deadline = self.cfg.deadline_steps;
        // The queue is in admission order, so its late requests lead it.
        while let Some(adm) = (self.waiting).pop_front_if(|adm| t - adm.admitted_at >= deadline) {
            let status = TerminalStatus::DeadlineExceeded { decoded: 0 };
            self.retire(t, adm.req.id, Some(adm), status, None);
        }
        let late: Vec<Active<'m>> = self
            .active
            .extract_if(.., |slot| t - slot.adm.admitted_at >= deadline)
            .collect();
        for slot in late {
            let decoded = slot.emitted;
            let status = TerminalStatus::DeadlineExceeded { decoded };
            self.retire(t, slot.adm.req.id, Some(slot.adm), status, None);
        }
    }

    /// Advances every active session one quantum — a prefill chunk or one
    /// decode step — in slot order: a slot that retires releases its
    /// budget before the next slot's page-growth check, and the capped
    /// arena's in-step demote-and-retry depends on that order.
    ///
    /// Each item runs under catch_unwind: a panic (injected pool fault
    /// inside the session's GEMMs, or the serve-level consult below)
    /// retires that request alone. AssertUnwindSafe is sound because a
    /// slot that panics mid-step is retired immediately — its
    /// possibly-inconsistent session is dropped, never re-stepped.
    fn work(&mut self, t: u64, plan: Option<&faults::FaultPlan>) {
        let chunk = self.cfg.prefill_chunk.max(1);
        let mut idx = 0;
        while idx < self.active.len() {
            let ended = if self.grow_reservation(idx) {
                let slot = &mut self.active[idx];
                let injected = plan
                    .is_some_and(|p| p.pool_panic((self.run_key ^ t) as usize, slot.adm.req.id));
                catch_unwind(AssertUnwindSafe(|| {
                    if injected {
                        panic!("injected pool task fault (serve)");
                    }
                    advance(slot, chunk)
                }))
                .unwrap_or_else(|payload| {
                    let reason = panic_reason(payload.as_ref());
                    Some(TerminalStatus::Failed { reason })
                })
                .map(|status| (status, Limit::Window))
            } else {
                let tokens = self.active[idx].emitted;
                let status = TerminalStatus::Done {
                    tokens,
                    truncated: true,
                };
                Some((status, Limit::KvBudget))
            };
            let Some((status, limit)) = ended else {
                idx += 1;
                continue;
            };
            let slot = self.active.remove(idx);
            self.retire(t, slot.adm.req.id, Some(slot.adm), status, Some(limit));
        }
    }

    /// Page-growth check before slot `idx` works: a decode step whose
    /// append would open a fresh page must grow the reservation first. The
    /// grant is re-synced to the session's *measured* allocation, so bytes
    /// freed by arena demotion flow back into the budget here. Returns
    /// false when the budget cannot cover the growth: the request then
    /// completes with the tokens it has — truncation, not failure.
    fn grow_reservation(&mut self, idx: usize) -> bool {
        let slot = &mut self.active[idx];
        let needs_step = slot.fed >= slot.adm.req.prompt.len()
            && slot.pending.is_some()
            && slot.emitted + 1 < slot.adm.req.decode_target;
        let len = slot.session.len();
        let opens_page =
            len > 0 && len.is_multiple_of(self.cfg.page_rows.max(1)) && len < self.shape.max_seq;
        if !(needs_step && opens_page) {
            return true;
        }
        let actual = slot.session.cache().allocated_bytes();
        if actual + self.page_bytes <= slot.adm.reserve {
            return true;
        }
        let extra = actual + self.page_bytes - slot.adm.reserve;
        if self.reserved + extra > self.cfg.kv_budget_bytes {
            return false;
        }
        slot.adm.reserve += extra;
        self.reserved += extra;
        self.observe_reserved();
        true
    }

    /// Records request `id`'s terminal `status` at iteration `t`: its
    /// outcome, transcript line and metric, and — for an admitted request
    /// (`adm`) — its latency and the release of its reservation. A
    /// truncated `Done` must name the `limit` it hit; other statuses
    /// ignore it.
    fn retire(
        &mut self,
        t: u64,
        id: usize,
        adm: Option<Admitted>,
        status: TerminalStatus,
        limit: Option<Limit>,
    ) {
        let admitted_at = adm.map(|adm| {
            self.reserved -= adm.reserve;
            let ns = adm.clock.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.latencies_ns.push(ns);
            metrics::REQUEST_LATENCY.record_ns(ns);
            adm.admitted_at
        });
        let event = match &status {
            TerminalStatus::Rejected(e) => {
                match e {
                    AdmissionError::QueueFull { .. } => metrics::REJECTED_QUEUE_FULL.incr(),
                    AdmissionError::KvBudgetExceeded { .. } => metrics::REJECTED_KV_BUDGET.incr(),
                }
                format!("reject r{id}: {e}")
            }
            TerminalStatus::DeadlineExceeded { decoded } => {
                metrics::EXPIRED.incr();
                format!("r{id} deadline exceeded after {decoded} tokens")
            }
            TerminalStatus::Done { tokens, truncated } => {
                metrics::COMPLETED.incr();
                let iters = t - admitted_at.unwrap_or(t);
                let cut = match (truncated, limit) {
                    (false, _) => "",
                    (true, Some(Limit::KvBudget)) => " (truncated at kv budget)",
                    (true, Some(Limit::Window)) => " (truncated at window)",
                    (true, None) => unreachable!("a truncated Done names its limit"),
                };
                format!("r{id} done: {tokens} tokens in {iters} iters{cut}")
            }
            TerminalStatus::Failed { reason } => {
                metrics::FAILED.incr();
                format!("r{id} failed: {reason}")
            }
        };
        self.line(format!("[iter {t}] {event}"));
        self.report.outcomes.push(RequestOutcome {
            id,
            status,
            admitted_at,
            finished_at: t,
        });
    }

    /// Completes the report. Counts come from the outcomes plus the
    /// unresolved leftovers. Latency percentiles in *iterations* are
    /// logical time, so they belong in the transcript; wall-clock
    /// percentiles go to the metrics bank only.
    fn finish(mut self, run_start: Instant) -> ServeReport {
        let mut r = std::mem::take(&mut self.report);
        let mut latencies_iters = Vec::new();
        r.unresolved = self.unresolved() as u64;
        r.admitted = (self.waiting.len() + self.active.len()) as u64;
        for o in &r.outcomes {
            if let Some(at) = o.admitted_at {
                r.admitted += 1;
                latencies_iters.push(o.finished_at - at);
            }
            match &o.status {
                TerminalStatus::Rejected(AdmissionError::QueueFull { .. }) => r.rejected_queue += 1,
                TerminalStatus::Rejected(AdmissionError::KvBudgetExceeded { .. }) => {
                    r.rejected_kv += 1
                }
                TerminalStatus::Done { tokens, truncated } => {
                    r.completed += 1;
                    r.truncated += u64::from(*truncated);
                    r.decode_tokens += *tokens as u64;
                }
                TerminalStatus::DeadlineExceeded { decoded } => {
                    r.expired += 1;
                    r.decode_tokens += *decoded as u64;
                }
                TerminalStatus::Failed { .. } => r.failed += 1,
            }
        }
        latencies_iters.sort_unstable();
        self.latencies_ns.sort_unstable();
        r.latency_iters_p50 = percentile(&latencies_iters, 50);
        r.latency_iters_p99 = percentile(&latencies_iters, 99);
        metrics::LATENCY_ITERS_P50.set(r.latency_iters_p50);
        metrics::LATENCY_ITERS_P99.set(r.latency_iters_p99);
        metrics::LATENCY_P50_NS.set(percentile(&self.latencies_ns, 50));
        metrics::LATENCY_P99_NS.set(percentile(&self.latencies_ns, 99));
        let elapsed_ns = run_start.elapsed().as_nanos().max(1);
        metrics::TOKENS_PER_SEC_MILLI.set(
            ((r.decode_tokens as u128 * 1_000_000_000_000) / elapsed_ns).min(u64::MAX as u128)
                as u64,
        );

        r.outcomes.sort_by_key(|o| o.id);
        let summary = format!(
            "summary: submitted {} admitted {} rejected {} (queue {}, kv {}) done {} \
             (truncated {}) expired {} failed {}\n\
             latency iters p50 {} p99 {}, max queue depth {}, max batch {}, \
             kv reserved peak {}, kv drain demoted {} pages ({} bytes), \
             iterations {} (stalled {})\n\
             verdict: {}\n",
            self.cfg.requests,
            r.admitted,
            r.rejected_queue + r.rejected_kv,
            r.rejected_queue,
            r.rejected_kv,
            r.completed,
            r.truncated,
            r.expired,
            r.failed,
            r.latency_iters_p50,
            r.latency_iters_p99,
            r.queue_depth_max,
            r.batch_occupancy_max,
            r.kv_reserved_peak,
            r.kv_demoted_pages,
            r.kv_demoted_bytes,
            r.iterations,
            r.stalled_iterations,
            r.verdict(),
        );
        r.transcript.push_str(&summary);
        r
    }
}

/// Advances one active request by one scheduling quantum, returning its
/// terminal status if the quantum ended it.
fn advance(slot: &mut Active<'_>, chunk: usize) -> Option<TerminalStatus> {
    let prompt_len = slot.adm.req.prompt.len();
    if slot.fed < prompt_len {
        // Chunked prefill: up to `chunk` prompt tokens this iteration. A
        // session forked from a shared-prefix template is already
        // prefilled, so its own prompt extends it token by token.
        let take = chunk.min(prompt_len - slot.fed);
        let toks = &slot.adm.req.prompt[slot.fed..slot.fed + take];
        let logits = if slot.session.is_empty() {
            slot.session.prefill(toks)
        } else {
            match toks
                .iter()
                .try_fold(None, |_, &tok| slot.session.step(tok).map(Some))
            {
                Ok(logits) => logits.expect("chunk is non-empty"),
                Err(e) => {
                    return Some(TerminalStatus::Failed {
                        reason: format!("prompt ingestion failed: {e}"),
                    })
                }
            }
        };
        slot.fed += take;
        metrics::PREFILL_CHUNK_TOKENS.add(take as u64);
        if slot.fed == prompt_len {
            slot.pending = Some(slot.session.greedy_next(&logits));
        }
        return None;
    }

    // Decode: emit the pending token, then (if more are needed) step the
    // session to produce the next one. `SequenceFull` truncates the
    // rollout at the window — a completion, not a failure.
    let tok = slot.pending.expect("decode phase has a pending token");
    slot.emitted += 1;
    metrics::DECODE_TOKENS.incr();
    let truncated = slot.emitted < slot.adm.req.decode_target;
    if truncated {
        match slot.session.step_greedy(tok) {
            Ok(next) => {
                slot.pending = Some(next);
                return None;
            }
            Err(StepError::SequenceFull { .. }) => engine_metrics::DECODE_TRUNCATED.incr(),
            Err(e) => {
                let reason = format!("step failed: {e}");
                return Some(TerminalStatus::Failed { reason });
            }
        }
    }
    Some(TerminalStatus::Done {
        tokens: slot.emitted,
        truncated,
    })
}

/// Stable panic description: injected pool faults collapse to a fixed
/// string because the payload that wins an inner batch's first-panic race
/// can differ across thread counts; everything else keeps its message.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic".into());
    if msg.starts_with("injected pool task fault") {
        "injected pool task fault".into()
    } else {
        msg
    }
}

/// Nearest-rank percentile over a sorted slice (0 for an empty slice).
fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (pct * n).div_ceil(100).clamp(1, n);
    sorted[(rank - 1) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use tender_faults::{FaultPlan, PlanGuard};
    use tender_model::synthetic::SyntheticLlm;
    use tender_model::ReferenceModel;

    /// Serializes tests: the fault plan and the metrics bank are global.
    static LOCK: Mutex<()> = Mutex::new(());

    fn tiny() -> ReferenceModel {
        let shape = ModelShape::tiny_test();
        SyntheticLlm::generate(&shape, 11).reference()
    }

    #[test]
    fn same_config_runs_are_byte_identical() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let cfg = ServeConfig::new(12, 42);
        let a = Scheduler::new(&model, cfg.clone()).run();
        let b = Scheduler::new(&model, cfg).run();
        assert_eq!(a.transcript, b.transcript);
        assert_eq!(a, b);
        assert_eq!(a.unresolved, 0);
        assert_eq!(
            a.verdict(),
            "all admitted requests reached a terminal status"
        );
        assert_eq!(a.outcomes.len(), 12, "every request reaches a terminal");
        // The byte-equality above is also the wall-clock guard: the two
        // runs took different real time, so any leaked timing would have
        // already diverged the transcripts.
    }

    #[test]
    fn queue_cap_rejections_are_typed_and_immediate() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let mut cfg = ServeConfig::new(6, 7);
        cfg.queue_cap = 1;
        cfg.max_batch = 1;
        cfg.max_arrival_gap = 0; // everyone arrives at iteration 0
        let report = Scheduler::new(&model, cfg).run();
        assert_eq!(report.admitted, 1);
        assert_eq!(report.rejected_queue, 5);
        assert_eq!(report.unresolved, 0);
        let rejected: Vec<_> = report
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.status,
                    TerminalStatus::Rejected(AdmissionError::QueueFull { cap: 1 })
                )
            })
            .collect();
        assert_eq!(rejected.len(), 5);
        assert!(rejected.iter().all(|o| o.admitted_at.is_none()));
        assert!(rejected.iter().all(|o| o.finished_at == 0), "immediate");
    }

    #[test]
    fn kv_budget_rejections_are_typed() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let mut cfg = ServeConfig::new(4, 9);
        cfg.kv_budget_bytes = 1; // nothing fits
        let report = Scheduler::new(&model, cfg).run();
        assert_eq!(report.admitted, 0);
        assert_eq!(report.rejected_kv, 4);
        assert_eq!(report.unresolved, 0);
        assert!(report.outcomes.iter().all(|o| matches!(
            o.status,
            TerminalStatus::Rejected(AdmissionError::KvBudgetExceeded { budget: 1, .. })
        )));
    }

    #[test]
    fn page_granular_admission_prices_pages_and_truncates_growth_at_budget() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let shape = ModelShape::tiny_test();
        let mut cfg = ServeConfig::new(1, 9);
        cfg.prompt_len = (4, 4);
        cfg.decode_len = (10, 10);
        cfg.page_rows = 4;
        cfg.deadline_steps = 500;
        let req = synthetic_traffic(&cfg, &shape).remove(0);

        // One 4-row prompt page + one decode page, vs the flat worst case
        // of prompt + full decode target.
        let admit = kv_admit_bytes(&shape, KvCacheMode::F32, 4, 0, req.prompt.len());
        let worst = kv_reserve_bytes(
            &shape,
            KvCacheMode::F32,
            req.prompt.len() + req.decode_target,
        );
        assert!(
            admit < worst,
            "page pricing {admit} must undercut worst-case {worst}"
        );

        // A budget of exactly the page-granular price admits the request
        // the worst-case pricing would have rejected…
        cfg.kv_budget_bytes = admit;
        let report = Scheduler::new(&model, cfg).run();
        assert_eq!(report.admitted, 1);
        assert_eq!(report.rejected_kv, 0);
        // …and the rollout completes as a truncation when its page growth
        // outruns the budget — never a failure, never unresolved.
        assert_eq!(report.completed, 1);
        assert_eq!(report.truncated, 1);
        assert_eq!(report.failed, 0);
        assert_eq!(report.unresolved, 0);
        assert!(report.transcript.contains("truncated at kv budget"));
    }

    #[test]
    fn shared_prefix_runs_are_deterministic_and_terminal() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let mut cfg = ServeConfig::new(8, 42);
        cfg.shared_prefix = 8;
        cfg.page_rows = 4;
        cfg.deadline_steps = 500;
        let a = Scheduler::new(&model, cfg.clone()).run();
        let b = Scheduler::new(&model, cfg).run();
        assert_eq!(a, b, "shared-prefix forking broke determinism");
        assert_eq!(a.unresolved, 0);
        assert!(a.transcript.contains("shared prefix: 8 tokens"));
        assert!(a.admitted > 0);
        assert_eq!(a.completed + a.expired + a.failed, a.admitted);
    }

    #[test]
    fn kv_reserve_bytes_shrinks_with_quantized_modes() {
        let shape = ModelShape::tiny_test();
        let f32b = kv_reserve_bytes(&shape, KvCacheMode::F32, 32);
        let i8b = kv_reserve_bytes(&shape, KvCacheMode::Int8, 32);
        let i4b = kv_reserve_bytes(&shape, KvCacheMode::Int4, 32);
        assert!(f32b > i8b, "f32 {f32b} vs int8 {i8b}");
        assert!(i8b > i4b, "int8 {i8b} vs int4 {i4b}");
    }

    #[test]
    fn deadlines_expire_but_every_request_is_terminal() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let mut cfg = ServeConfig::new(8, 3);
        cfg.deadline_steps = 1; // nothing can finish in one iteration
        cfg.decode_len = (30, 30);
        let report = Scheduler::new(&model, cfg).run();
        assert!(report.admitted > 0);
        assert_eq!(report.expired, report.admitted);
        assert_eq!(report.completed, 0);
        assert_eq!(report.unresolved, 0);
        assert_eq!(report.outcomes.len(), 8);
    }

    #[test]
    fn injected_pool_faults_fail_requests_in_isolation() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let _guard = PlanGuard::install(FaultPlan::parse(5, "pool=1").unwrap());
        let report = Scheduler::new(&model, ServeConfig::new(6, 21)).run();
        assert!(report.admitted > 0);
        assert_eq!(report.failed, report.admitted, "every work item faults");
        assert_eq!(report.completed, 0);
        assert_eq!(report.unresolved, 0, "failures never wedge the loop");
        assert!(report.transcript.contains("injected pool task fault"));
        assert!(report.outcomes.iter().all(|o| matches!(
            &o.status,
            TerminalStatus::Failed { reason } if reason == "injected pool task fault"
        ) || matches!(
            o.status,
            TerminalStatus::Rejected(_)
        )));
    }

    #[test]
    fn injected_sched_stalls_slow_service_without_hanging_it() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let _guard = PlanGuard::install(FaultPlan::parse(5, "sched=1").unwrap());
        let mut cfg = ServeConfig::new(6, 33);
        cfg.deadline_steps = 4;
        let report = Scheduler::new(&model, cfg).run();
        assert!(report.stalled_iterations > 0);
        assert!(report.admitted > 0);
        // A total stall means no request can make progress, so deadlines
        // are the only exit — and they fire.
        assert_eq!(report.expired, report.admitted);
        assert_eq!(report.unresolved, 0);
        assert!(report.transcript.contains("sched stall (injected)"));
    }

    #[test]
    fn window_overshoot_truncates_as_done_not_failed() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = tiny();
        let before = engine_metrics::DECODE_TRUNCATED.get();
        let mut cfg = ServeConfig::new(8, 64); // request id 7 overshoots
        cfg.deadline_steps = 500;
        let report = Scheduler::new(&model, cfg).run();
        assert_eq!(report.unresolved, 0);
        assert!(report.truncated >= 1, "the overshoot request truncated");
        assert_eq!(report.completed, report.admitted);
        assert_eq!(report.failed, 0);
        assert!(engine_metrics::DECODE_TRUNCATED.get() > before);
        assert!(report.transcript.contains("(truncated at window)"));
    }

    #[test]
    fn build_or_degrade_counts_the_fallback() {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = tender_metrics::faults::DEGRADED_SITES.get();
        assert_eq!(build_or_degrade(|| 7), Some(7));
        assert_eq!(tender_metrics::faults::DEGRADED_SITES.get(), before);
        let degraded: Option<u32> = build_or_degrade(|| panic!("setup blew up"));
        assert_eq!(degraded, None);
        assert_eq!(tender_metrics::faults::DEGRADED_SITES.get(), before + 1);
    }

    #[test]
    fn traffic_is_deterministic_and_in_vocab() {
        let shape = ModelShape::tiny_test();
        let cfg = ServeConfig::new(32, 5);
        let a = synthetic_traffic(&cfg, &shape);
        let b = synthetic_traffic(&cfg, &shape);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.iter().all(|r| r.prompt.iter().all(|&t| t < shape.vocab)));
        assert!(a
            .iter()
            .all(|r| !r.prompt.is_empty() && r.decode_target > 0));
        // Every 8th request overshoots the window on purpose.
        let r7 = &a[7];
        assert!(r7.prompt.len() + r7.decode_target > shape.max_seq);
    }
}
