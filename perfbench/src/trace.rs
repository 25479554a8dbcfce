//! The benchmark's own tracing: spans around each public call the
//! benchmark makes, kept in memory and written out once at exit, plus
//! snapshots of the program's `tender_metrics` statics so each call's
//! counter and timer deltas can be attributed to it.
//!
//! Nothing here reaches inside the program: a span covers exactly one call
//! the benchmark makes (or a group of them), and the counters are the
//! program's existing process-global statics.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use tender::metrics as m;

/// One recorded span: a named interval, its parent and the request or
/// wave it belongs to.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Program counter deltas over the span, for spans around one call.
    pub delta: Option<Snap>,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Disabled, it records nothing and only runs the
/// wrapped closures.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` for request/wave `id`.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            delta: None,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// A span around one public call into the program that also records
    /// the program's counter deltas over the call.
    pub fn call<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let before = Snap::take();
        let idx = self.spans.len();
        let out = self.span(name, id, |_| f());
        self.spans[idx].delta = Some(Snap::take().since(&before));
        out
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Total duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::dur_ns)
            .sum()
    }

    /// Self time of every span called `name`: each one's duration minus
    /// the part its direct children cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                text,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}",
                s.name, s.id, s.start_ns, s.end_ns
            );
            if let Some(d) = &s.delta {
                let fields: Vec<String> = d
                    .fields()
                    .iter()
                    .filter(|(_, v)| *v != 0)
                    .map(|(k, v)| format!("\"{k}\":{v}"))
                    .collect();
                let _ = write!(text, ",\"counters\":{{{}}}", fields.join(","));
            }
            text.push_str("}\n");
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(text.as_bytes())?;
        f.flush()
    }
}

/// Declares [`Snap`]: one `u64` field per program counter or timer total,
/// read by [`Snap::take`], subtracted by [`Snap::since`] and listed by
/// [`Snap::fields`] for the span file.
macro_rules! snap {
    ($($field:ident: $read:expr,)*) => {
        /// A snapshot of the program's counters and timer totals that the
        /// per-layer metrics are computed from. Subtracting two snapshots
        /// gives the work done between them.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Snap {
            $(pub $field: u64,)*
        }

        impl Snap {
            pub fn take() -> Self {
                Self { $($field: $read,)* }
            }

            /// `self − before`, field by field.
            pub fn since(&self, before: &Snap) -> Snap {
                Snap { $($field: self.$field - before.$field,)* }
            }

            /// Every field with its name.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)*]
            }
        }
    };
}

snap! {
    prefill_tokens: m::engine::PREFILL_TOKENS.get(),
    prefill_ns: m::engine::PREFILL_TIME.total_ns(),
    decode_steps: m::engine::DECODE_STEPS.get(),
    step_ns: m::engine::DECODE_STEP_TIME.total_ns(),
    decode_macs: m::engine::DECODE_MACS.get(),
    kv_int_dot_macs: m::engine::KV_INT_DOT_MACS.get(),
    kv_requants: m::engine::KV_REQUANTS.get(),
    page_allocs: m::kv_arena::PAGE_ALLOCS.get(),
    cow_copies: m::kv_arena::COW_COPIES.get(),
    demoted_int8: m::kv_arena::DEMOTED_INT8.get(),
    demoted_int4: m::kv_arena::DEMOTED_INT4.get(),
    async_demoted_pages: m::kv_arena::ASYNC_DEMOTED_PAGES.get(),
    async_demoted_bytes: m::kv_arena::ASYNC_DEMOTED_BYTES.get(),
    alloc_retries: m::kv_arena::ALLOC_RETRIES.get(),
    evict_failures: m::kv_arena::EVICT_FAILURES.get(),
    shard_contention: m::kv_arena::SHARD_CONTENTION.get(),
    chunks_fast_path: m::kernel::CHUNKS_FAST_PATH.get(),
    chunks_checked: m::kernel::CHUNKS_CHECKED.get(),
    overflow_events: m::kernel::OVERFLOW_EVENTS.get(),
    saturated_values: m::kernel::SATURATED_VALUES.get(),
    reference_gemms: m::gemm::REFERENCE_GEMMS.get(),
    blocked_gemms: m::gemm::BLOCKED_GEMMS.get(),
    tiles_dispatched: m::gemm::TILES_DISPATCHED.get(),
    parallel_items: m::pool::PARALLEL_ITEMS.get(),
    inline_items: m::pool::INLINE_ITEMS.get(),
    busy_ns: m::pool::THREAD_BUSY_NS.slots().iter().map(|c| c.get()).sum(),
}

impl Snap {
    /// Engine time: prefill plus decode-step timers.
    pub fn engine_ns(&self) -> u64 {
        self.prefill_ns + self.step_ns
    }
}
