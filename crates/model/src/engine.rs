//! Prefill + incremental-decode inference engine over a paged KV cache.
//!
//! [`DecodeSession`] wraps a model (reference or quantized) and exposes the
//! two-phase inference shape real serving systems use: [`prefill`] ingests
//! the prompt in one full-sequence pass while filling a per-layer, per-head
//! [`KvCache`]; [`step`] then feeds one token at a time, attending against
//! the cache instead of re-running the whole prefix. [`BatchEngine`] runs
//! many sessions through the shared worker pool deterministically.
//!
//! **Paged storage.** Cache rows live in fixed-size pages allocated from a
//! [`KvArena`] (default 16 positions per page). A session created through
//! [`DecodeSession::new`] / [`with_cache_mode`] gets a private, unbounded
//! arena; sessions created with [`DecodeSession::with_arena`] share one
//! arena, and [`DecodeSession::fork`] clones a prefilled session by
//! *retaining* its pages instead of copying them — the shared prompt prefix
//! is stored once, and a fork copies only the page it diverges on
//! (copy-on-write). Under a configured arena byte cap, cold (sealed,
//! exclusively-owned) pages are demoted f32 → int8 → int4 in place via the
//! paper's requantization recipe before any allocation is refused; at the
//! floor the typed [`EvictError`] surfaces as [`StepError::KvExhausted`].
//!
//! **Cache modes.** The cache stores K/V rows in one of three
//! [`KvCacheMode`]s: `f32` (exact, the default), `int8`, or `int4` with the
//! paper's per-head power-of-two group decomposition. Quantized modes
//! quantize each row at append time against the plane's running `TMax`
//! (per-channel bias subtracted, as in the calibration path). When a new
//! row's residual magnitude exceeds `TMax`, the plane requantizes by the
//! paper's runtime rule: double `TMax`, advance every element's group
//! index, and 1-bit-shift only the values the index cannot absorb (see
//! [`tender_tensor::QuantRows`]) — applied to the live tail page only;
//! sealed pages keep the scale snapshot they were written under, which is
//! self-consistent and strictly more accurate than reshifting them.
//!
//! **Read paths.** Quantized planes are *read* in the integer domain by
//! default ([`KvReadPath::Integer`]): decode attention quantizes the query
//! (and attention-probability) row to 8-bit codes and dots it against the
//! packed K/V codes page by page, accumulating per power-of-two group in
//! i64 and applying each page's scale once per dot via the α = 2
//! shift-combine — never materializing an f32 plane. The legacy
//! [`KvReadPath::Dequant`] path (gather the dequantized plane, then run f32
//! attention) is kept for A/B benchmarking and differential tests. Either
//! way decode stays bit-deterministic at any thread count and GEMM
//! backend; the two read paths are numerically close but not bit-equal
//! (the integer path rounds the query/probability rows).
//!
//! **Parity guarantee.** In `f32` mode with an unbounded arena,
//! `prefill(&t[..n]); step(t[n]); …; step(t[m-1])` produces logits
//! bit-identical to the last row of a full-sequence `forward(&t[..m])` for
//! every row-independent scheme (reference, FP32, FP16, integer
//! granularities, Tender implicit/explicit), at any thread count: f32 pages
//! store the exact appended rows and the gathered read concatenates them in
//! order, so paging is invisible to the numerics. Forked sessions inherit
//! the guarantee — a CoW copy is byte-identical to the page it replaces.
//! Quantized cache modes (and capacity-forced demotion) trade bit-parity
//! for footprint by design; they remain bit-deterministic for a fixed mode
//! at any thread count.
//!
//! [`prefill`]: DecodeSession::prefill
//! [`step`]: DecodeSession::step
//! [`with_cache_mode`]: DecodeSession::with_cache_mode

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use tender_metrics::engine as metrics;
use tender_metrics::kernel as kernel_metrics;
use tender_metrics::kv_arena as arena_metrics;
use tender_quant::quantizer::{f16_round, quantize_value, symmetric_scale};
use tender_quant::tender::{classify_channels, group_scales};
use tender_tensor::arena::QuantPage;
use tender_tensor::{
    gemm, pool, DemoteKey, EvictError, KvArena, Matrix, PageId, PagePayload, PageTier, QuantRows,
};

use crate::forward::{QuantizedModel, ReferenceModel};
use crate::pipeline::{self, Exec};
use crate::shape::ModelShape;
use crate::weights::TransformerWeights;

/// Group spacing factor: power-of-two thresholds and scales (Eq. 3), the
/// choice that makes runtime requantization a group-index bump / 1-bit
/// shift.
const ALPHA: u32 = 2;

/// Activation-side precision of the integer read path: query and
/// attention-probability rows are quantized to this many bits before
/// being dotted against the packed cache codes (the paper's INT8
/// activation datapath).
const KV_ACT_BITS: u32 = 8;

/// How quantized cache planes are read during decode attention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KvReadPath {
    /// Dot the packed codes directly: per-group i64 accumulation plus the
    /// α = 2 shift-combine, one scale application per dot (the fast path).
    #[default]
    Integer,
    /// Legacy dequantize-on-read: materialize the f32 plane, then run the
    /// ordinary f32 attention product. Kept for A/B benchmarks and
    /// differential tests.
    Dequant,
}

impl KvReadPath {
    /// Canonical lower-case name.
    pub fn label(self) -> &'static str {
        match self {
            Self::Integer => "integer",
            Self::Dequant => "dequant",
        }
    }
}

/// Storage precision of the KV cache.
///
/// Byte accounting (per cached position, per head, per K or V plane):
///
/// | mode | payload                                  | per-plane constants |
/// |------|------------------------------------------|---------------------|
/// | f32  | `4 × head_dim`                           | none                |
/// | int8 | `head_dim`                               | `TMax` (4) + f16 bias (`2 × head_dim`) |
/// | int4 | `⌈head_dim/2⌉ + `⌈head_dim/4⌉` (2-bit group indices) | same |
///
/// With paged storage each page additionally carries its frozen group-scale
/// snapshot (4 bytes per group); demoted pages also carry a page-local
/// bias/`TMax` (they re-derive both from their own rows). The plane bias is
/// kept at f16 precision (values are rounded through [`f16_round`]) and
/// counted at two bytes per channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvCacheMode {
    /// Exact `f32` rows — the bit-parity path.
    F32,
    /// INT8 per-head symmetric quantization (one group).
    Int8,
    /// INT4 per-head with four power-of-two groups (Tender Eq. 3).
    Int4,
}

impl KvCacheMode {
    /// Every mode, in documentation order.
    pub const ALL: [KvCacheMode; 3] = [KvCacheMode::F32, KvCacheMode::Int8, KvCacheMode::Int4];

    /// Parses a CLI spelling (`f32` / `int8` / `int4`, case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "f32" | "fp32" => Some(Self::F32),
            "int8" => Some(Self::Int8),
            "int4" => Some(Self::Int4),
            _ => None,
        }
    }

    /// Canonical lower-case name.
    pub fn label(self) -> &'static str {
        match self {
            Self::F32 => "f32",
            Self::Int8 => "int8",
            Self::Int4 => "int4",
        }
    }

    /// Element width in bits.
    pub fn bits(self) -> u32 {
        match self {
            Self::F32 => 32,
            Self::Int8 => 8,
            Self::Int4 => 4,
        }
    }

    /// Power-of-two decomposition groups (1 = plain symmetric).
    pub fn num_groups(self) -> usize {
        match self {
            Self::F32 | Self::Int8 => 1,
            Self::Int4 => 4,
        }
    }

    /// Stored bytes per cached position, per head, per K or V plane.
    pub fn position_bytes(self, head_dim: usize) -> u64 {
        match self {
            Self::F32 => 4 * head_dim as u64,
            Self::Int8 => head_dim as u64,
            Self::Int4 => (head_dim.div_ceil(2) + head_dim.div_ceil(4)) as u64,
        }
    }

    /// Per-plane constant bytes (quantization metadata), per K or V plane.
    pub fn head_overhead_bytes(self, head_dim: usize) -> u64 {
        match self {
            Self::F32 => 0,
            Self::Int8 | Self::Int4 => 4 + 2 * head_dim as u64,
        }
    }
}

/// Quantizes an f32 activation row to `KV_ACT_BITS` codes, returning the
/// codes and the scale. Non-finite entries are excluded from the range
/// estimate and clamp deterministically in `quantize_value`.
fn quantize_act(xs: &[f32]) -> (Vec<i32>, f32) {
    let mut amax = 0.0f32;
    for &x in xs {
        if x.is_finite() {
            amax = amax.max(x.abs());
        }
    }
    let scale = symmetric_scale(amax, KV_ACT_BITS);
    let codes = xs
        .iter()
        .map(|&x| quantize_value(x, scale, KV_ACT_BITS))
        .collect();
    (codes, scale)
}

/// Folds the per-group i64 partial sums of one dot into a single value
/// with the α = 2 shift-combine (groups ascending: `acc ← acc·2 + S_g`),
/// mirroring the implicit-requantization kernels. With `check` set,
/// every shift and add is tested against the i32 datapath range and
/// excursions are counted into `events`.
fn combine_groups(accs: &[i64], check: bool, events: &mut u64) -> i64 {
    let mut acc = accs[0];
    for &s in &accs[1..] {
        acc *= ALPHA as i64;
        if check && (acc > i32::MAX as i64 || acc < i32::MIN as i64) {
            *events += 1;
        }
        acc += s;
        if check && (acc > i32::MAX as i64 || acc < i32::MIN as i64) {
            *events += 1;
        }
    }
    acc
}

/// Records one plane walk of `dots` integer dot products in the kernel
/// overflow-machinery counters.
fn record_dot_metrics(dots: usize, check: bool, events: u64) {
    if check {
        kernel_metrics::CHUNKS_CHECKED.add(dots as u64);
    } else {
        kernel_metrics::CHUNKS_FAST_PATH.add(dots as u64);
    }
    if events > 0 {
        kernel_metrics::OVERFLOW_EVENTS.add(events);
    }
}

/// Per-channel bias `(lo + hi)/2` over a batch of rows, f16-rounded,
/// non-finite values excluded (the prompt acts as the calibration set,
/// mirroring `ChunkCalibration::from_activation`).
fn plane_bias(rows: &[&[f32]], head_dim: usize) -> Vec<f32> {
    let mut bias = vec![0.0f32; head_dim];
    for (c, b) in bias.iter_mut().enumerate() {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for row in rows {
            let x = row[c];
            if x.is_finite() {
                lo = lo.min(x);
                hi = hi.max(x);
            }
        }
        if lo <= hi {
            *b = f16_round(0.5 * (lo + hi));
        }
    }
    bias
}

/// Re-quantizes a page's rows from scratch at a lower storage tier (the
/// demotion step of the eviction ladder).
///
/// The page's rows are reconstructed to f32 (exact for an f32 page; the
/// page's own frozen scale snapshot for a quantized page), then quantized
/// exactly as an append-time plane would quantize them — page-local bias
/// `(lo + hi)/2` f16-rounded per channel, residual `TMax`, power-of-two
/// group scales, [`classify_channels`] group assignment — so a demoted page
/// is bit-identical to quantizing the same rows from scratch. The returned
/// payload carries `page_local = true`: its bias/`TMax` are its own and
/// counted against the page.
///
/// # Panics
///
/// Panics if `target` is [`KvCacheMode::F32`] — demotion only moves down
/// the ladder.
pub fn demote_payload(payload: &PagePayload, target: KvCacheMode) -> PagePayload {
    assert!(
        target != KvCacheMode::F32,
        "demotion target must be a quantized tier"
    );
    let bits = target.bits();
    let groups = target.num_groups();
    let nrows = payload.rows();
    let dh = payload.cols();

    // Reconstruct the stored rows in f32.
    let mut rows: Vec<Vec<f32>> = Vec::with_capacity(nrows);
    match payload {
        PagePayload::F32(m) => {
            for r in 0..nrows {
                rows.push(m.row(r).to_vec());
            }
        }
        PagePayload::Quant(q) => {
            let mut qs = vec![0i32; dh];
            let mut gs = vec![0u8; dh];
            for r in 0..nrows {
                q.rows.decode_row_into(r, &mut qs, &mut gs);
                rows.push(
                    (0..dh)
                        .map(|c| qs[c] as f32 * q.scales[gs[c] as usize] + q.bias[c])
                        .collect(),
                );
            }
        }
    }

    // Page-local calibration: bias, residual TMax, group scales.
    let row_refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
    let bias = plane_bias(&row_refs, dh);
    let mut tmax = 0.0f32;
    for row in &rows {
        for (c, &x) in row.iter().enumerate() {
            let resid = x - bias[c];
            if resid.is_finite() {
                tmax = tmax.max(resid.abs());
            }
        }
    }
    let tmax = tmax.max(f32::MIN_POSITIVE);
    let scales = group_scales(tmax, groups, ALPHA, bits);

    let mut out = QuantRows::with_row_capacity(dh, bits, groups > 1, nrows);
    for row in &rows {
        let resid: Vec<f32> = row.iter().zip(&bias).map(|(x, b)| x - b).collect();
        let mags: Vec<f32> = resid
            .iter()
            .map(|&x| if x.is_finite() { x.abs() } else { f32::MAX })
            .collect();
        let gs: Vec<u8> = if groups > 1 {
            classify_channels(&mags, tmax, groups, ALPHA)
                .expect("magnitudes are finite by construction")
                .into_iter()
                .map(|g| g as u8)
                .collect()
        } else {
            Vec::new()
        };
        let qs: Vec<i32> = resid
            .iter()
            .enumerate()
            .map(|(c, &x)| {
                let g = gs.get(c).copied().unwrap_or(0) as usize;
                quantize_value(x, scales[g], bits)
            })
            .collect();
        out.push_row(&qs, &gs);
    }
    PagePayload::Quant(QuantPage {
        rows: out,
        scales,
        bias: Arc::new(bias),
        tmax,
        page_local: true,
    })
}

/// Outcome of one boundary drain of an arena's demotion queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Pages requantized down the ladder.
    pub demoted: usize,
    /// Allocated bytes freed.
    pub freed_bytes: u64,
}

/// Candidates popped per drain round, bounding how far one round can
/// overshoot the watermark once it frees enough bytes.
const DRAIN_BATCH: usize = 16;

/// Drains `arena`'s demotion queue at a deterministic iteration boundary:
/// pops candidates in clock-key order while the arena sits above its
/// watermark or holds less than `headroom` bytes under its cap, and
/// requantizes each batch on pool workers from payload snapshots taken
/// outside any shard lock. A candidate that died, got shared, or changed
/// tier since it was enqueued is revalidated away (generation-checked);
/// a page demoted to int8 is re-enqueued under the current clock so a
/// later drain can take it to the int4 floor.
///
/// Which pages end up demoted depends only on the queue's structural keys
/// and this boundary's byte deficit — never on pool interleaving — so
/// transcripts stay byte-identical at any thread count.
pub fn drain_demotions(arena: &KvArena, headroom: u64) -> DrainStats {
    let mut stats = DrainStats::default();
    let page_rows = arena.page_rows();
    loop {
        if !(arena.over_watermark() || arena.headroom_bytes() < headroom) {
            break;
        }
        let batch = arena.pop_demotions(DRAIN_BATCH);
        if batch.is_empty() {
            break;
        }
        // Requantize off the shard locks, one pool task per candidate;
        // `replace_if_exclusive` commits only if the page is still live,
        // exclusive, and at the snapshot tier.
        let committed: Vec<Option<(usize, u64, PageTier)>> = pool::par_map(batch.len(), |i| {
            let cand = batch[i];
            let target = match cand.tier {
                PageTier::F32 => KvCacheMode::Int8,
                PageTier::Int8 => KvCacheMode::Int4,
                PageTier::Int4 => return None,
            };
            let payload = arena.try_payload(cand.id)?;
            if payload.tier() != cand.tier || payload.rows() != page_rows {
                return None;
            }
            let (refs, _, _) = arena.page_meta(cand.id)?;
            if refs != 1 {
                return None;
            }
            let demoted = demote_payload(&payload, target);
            // Demotion exists to free bytes. At tiny head dims the lower
            // rung's per-group scale snapshot can outweigh its code
            // savings; a non-shrinking requantization is skipped (and not
            // re-enqueued) — committing it would grow allocation past the
            // cap, which the in-place edit path does not re-check.
            if demoted.allocated_bytes(page_rows) >= payload.allocated_bytes(page_rows) {
                return None;
            }
            let freed = arena.replace_if_exclusive(cand.id, cand.tier, demoted)?;
            let now_tier = cand.tier.demoted().expect("not at the floor");
            Some((i, freed, now_tier))
        });
        for entry in committed.into_iter().flatten() {
            let (i, freed, now_tier) = entry;
            stats.demoted += 1;
            stats.freed_bytes += freed;
            arena_metrics::ASYNC_DEMOTED_PAGES.incr();
            arena_metrics::ASYNC_DEMOTED_BYTES.add(freed);
            if now_tier != PageTier::Int4 {
                let cand = batch[i];
                let key = DemoteKey {
                    clock: arena.clock(),
                    ..cand.key
                };
                arena.enqueue_demotion(key, cand.id, now_tier);
            }
        }
    }
    stats
}

/// One quantized plane's append-time state: fixed per-channel bias,
/// running `TMax`, derived group scales. The packed codes themselves live
/// in arena pages; this struct is what quantizes new rows into the tail
/// page and freezes a scale snapshot onto it after every write.
#[derive(Debug, Clone)]
struct PlaneQuant {
    /// Per-channel bias, fixed at first append. Shared (`Arc`) with every
    /// non-demoted page of the plane.
    bias: Arc<Vec<f32>>,
    /// Running per-plane residual absolute maximum; doubles on requant.
    tmax: f32,
    /// `group_scales(tmax, groups, ALPHA, bits)`, cached.
    scales: Vec<f32>,
    /// Runtime requantization events this plane has performed.
    requants: u64,
}

impl PlaneQuant {
    fn new() -> Self {
        Self {
            bias: Arc::new(Vec::new()),
            tmax: 0.0,
            scales: Vec::new(),
            requants: 0,
        }
    }

    /// Quantizes one row into the live tail page against the running
    /// `TMax`, requantizing the *tail page only* when the row exceeds it
    /// (sealed pages keep their frozen snapshots), then commits the current
    /// plane state onto the page as its scale snapshot.
    fn push_into(&mut self, page: &mut QuantPage, row: &[f32], bits: u32, groups: usize) {
        let resid: Vec<f32> = row
            .iter()
            .zip(self.bias.iter())
            .map(|(x, b)| x - b)
            .collect();
        // Magnitudes for classification: a non-finite residual degrades to
        // group 0 via a MAX sentinel (the calibration path's rule) but is
        // excluded from TMax growth so one NaN cannot inflate every scale.
        let mut mags = Vec::with_capacity(resid.len());
        let mut row_max = 0.0f32;
        for &x in &resid {
            if x.is_finite() {
                let a = x.abs();
                row_max = row_max.max(a);
                mags.push(a);
            } else {
                mags.push(f32::MAX);
            }
        }
        if self.scales.is_empty() {
            self.tmax = if row_max > 0.0 {
                row_max
            } else {
                f32::MIN_POSITIVE
            };
            self.scales = group_scales(self.tmax, groups, ALPHA, bits);
        } else if row_max > self.tmax {
            // Runtime requantization: double TMax until it covers the new
            // row, then apply the same number of doublings to the tail
            // page's stored rows (it is the only page still written under
            // the current scales).
            let mut doublings = 0u32;
            let mut t = self.tmax;
            while t < row_max {
                t *= 2.0;
                doublings += 1;
                if !t.is_finite() {
                    t = row_max;
                    break;
                }
            }
            self.tmax = t;
            page.rows.requant_shift(doublings, groups);
            self.scales = group_scales(self.tmax, groups, ALPHA, bits);
            self.requants += 1;
            metrics::KV_REQUANTS.incr();
        }
        let gs: Vec<u8> = if groups > 1 {
            classify_channels(&mags, self.tmax, groups, ALPHA)
                .expect("magnitudes are finite by construction")
                .into_iter()
                .map(|g| g as u8)
                .collect()
        } else {
            Vec::new()
        };
        let qs: Vec<i32> = resid
            .iter()
            .enumerate()
            .map(|(c, &x)| {
                let g = gs.get(c).copied().unwrap_or(0) as usize;
                quantize_value(x, self.scales[g], bits)
            })
            .collect();
        page.rows.push_row(&qs, &gs);
        // Commit the snapshot the page's rows are now consistent with.
        page.scales = self.scales.clone();
        page.tmax = self.tmax;
        page.bias = self.bias.clone();
        page.page_local = false;
    }
}

/// One head's K or V plane: an ordered page list plus (for quantized
/// modes) the append-time quantization state.
#[derive(Debug, Clone)]
struct Plane {
    /// Arena pages in position order; all full except possibly the last.
    pages: Vec<PageId>,
    /// Cached positions across the pages.
    len: usize,
    /// Append-time quantization state (`None` for f32 planes).
    quant: Option<PlaneQuant>,
}

impl Plane {
    fn new(mode: KvCacheMode) -> Self {
        Self {
            pages: Vec::new(),
            len: 0,
            quant: (mode != KvCacheMode::F32).then(PlaneQuant::new),
        }
    }
}

/// Session-local per-tier page accounting (this cache's own view: a page
/// shared with forked sessions is counted here by every owner, unlike the
/// arena's global stats, which count it once).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvTierStats {
    /// Pages this cache references per tier (`PageTier::index` order:
    /// f32, int8, int4).
    pub pages: [u64; 3],
    /// Resident bytes of those pages per tier.
    pub resident: [u64; 3],
    /// Allocated (full-page) bytes of those pages per tier.
    pub allocated: [u64; 3],
}

impl KvTierStats {
    /// Total pages across tiers.
    pub fn pages_total(&self) -> u64 {
        self.pages.iter().sum()
    }

    /// Total resident bytes across tiers.
    pub fn resident_total(&self) -> u64 {
        self.resident.iter().sum()
    }

    /// Total allocated bytes across tiers.
    pub fn allocated_total(&self) -> u64 {
        self.allocated.iter().sum()
    }
}

/// Per-layer, per-head K/V row storage, paged out of a [`KvArena`].
///
/// Each (layer, head) pair owns two page-list planes built by row appends;
/// all `layers × heads` pairs always hold the same number of positions.
/// Storage precision is chosen by [`KvCacheMode`]; quantized planes
/// quantize at append and are read either in the integer domain or by
/// gathering a dequantized matrix.
///
/// **Growth policy.** The cache grows page by page with no sequence limit
/// of its own — the *model's* positional limit (`max_seq` rows of
/// positional embeddings) is enforced one level up by
/// [`DecodeSession::step`], which returns [`StepError::SequenceFull`]
/// instead of appending past it. What can stop an append is the arena's
/// byte cap: [`KvCache::append`] demotes this cache's cold pages down the
/// f32 → int8 → int4 ladder to make room and returns [`EvictError`] only
/// at the floor.
///
/// **Sharing.** `clone()` retains every page (copy-on-write fork): the
/// clone shares the prefix physically and copies a page only when one
/// owner appends to it. The arena's gauges count shared pages once;
/// [`KvCache::bytes`] is this cache's own (session-local) view.
#[derive(Debug)]
pub struct KvCache {
    layers: usize,
    heads: usize,
    head_dim: usize,
    mode: KvCacheMode,
    /// How quantized planes are read during decode attention.
    read_path: KvReadPath,
    /// The arena every page is allocated from.
    arena: KvArena,
    /// This cache's owner id within the arena — a component of the
    /// demotion clock key, registered from single-threaded construction
    /// code so it is reproducible at any thread count.
    owner: u64,
    /// `layers × heads` K planes, indexed `li * heads + head`.
    k: Vec<Plane>,
    /// `layers × heads` V planes, same indexing.
    v: Vec<Plane>,
}

impl KvCache {
    /// An empty `f32` cache for `shape` over a private, unbounded arena
    /// with the default page size.
    pub fn new(shape: &ModelShape) -> Self {
        Self::with_mode(shape, KvCacheMode::F32)
    }

    /// An empty cache in `mode` over a private, unbounded arena.
    pub fn with_mode(shape: &ModelShape, mode: KvCacheMode) -> Self {
        Self::with_arena(shape, mode, &KvArena::default())
    }

    /// An empty cache in `mode` drawing pages from `arena` (shared with
    /// every other cache holding a handle to it).
    pub fn with_arena(shape: &ModelShape, mode: KvCacheMode, arena: &KvArena) -> Self {
        let dh = shape.head_dim();
        let slots = shape.layers * shape.heads;
        let make = || -> Vec<Plane> { (0..slots).map(|_| Plane::new(mode)).collect() };
        let cache = Self {
            layers: shape.layers,
            heads: shape.heads,
            head_dim: dh,
            mode,
            read_path: KvReadPath::default(),
            arena: arena.clone(),
            owner: arena.register_owner(),
            k: make(),
            v: make(),
        };
        cache.publish_overhead(true);
        cache
    }

    /// Demotion-queue plane key: all K planes (layer/head ascending)
    /// before all V planes, matching [`KvCache::demote_one`]'s scan order
    /// so the boundary drain prefers the same "coldest" pages. Also the
    /// arena shard stripe.
    fn plane_key(&self, is_k: bool, slot: usize) -> u64 {
        (if is_k { 0 } else { self.layers * self.heads } + slot) as u64
    }

    /// The tier rows are appended at in this cache's mode.
    fn append_tier(&self) -> PageTier {
        match self.mode {
            KvCacheMode::F32 => PageTier::F32,
            KvCacheMode::Int8 => PageTier::Int8,
            KvCacheMode::Int4 => PageTier::Int4,
        }
    }

    /// The storage precision this cache was built with.
    pub fn mode(&self) -> KvCacheMode {
        self.mode
    }

    /// The arena this cache draws pages from.
    pub fn arena(&self) -> &KvArena {
        &self.arena
    }

    /// Cached positions per page.
    pub fn page_rows(&self) -> usize {
        self.arena.page_rows()
    }

    /// Cached sequence positions (identical across layers and heads).
    pub fn len(&self) -> usize {
        self.k.first().map_or(0, |p| p.len)
    }

    /// Whether the cache holds no positions yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Positions each head's current page list can hold before another
    /// page is allocated.
    pub fn capacity(&self) -> usize {
        self.k
            .first()
            .map_or(0, |p| p.pages.len() * self.arena.page_rows())
    }

    /// Layers the cache spans.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Heads per layer.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Per-plane constant bytes this cache publishes outside the arena
    /// (quantization metadata: bias + `TMax` per plane in quantized modes).
    fn overhead_bytes(&self) -> u64 {
        2 * (self.layers * self.heads) as u64 * self.mode.head_overhead_bytes(self.head_dim)
    }

    /// Adds or removes the plane-constant overhead from the aggregate
    /// gauges (page bytes are accounted by the arena itself).
    fn publish_overhead(&self, add: bool) {
        let b = self.overhead_bytes();
        if b == 0 {
            return;
        }
        if add {
            metrics::KV_CACHE_BYTES.add(b);
            metrics::KV_CACHE_ALLOCATED_BYTES.add(b);
            metrics::KV_CACHE_PEAK_BYTES.observe(metrics::KV_CACHE_BYTES.get());
        } else {
            metrics::KV_CACHE_BYTES.sub(b);
            metrics::KV_CACHE_ALLOCATED_BYTES.sub(b);
        }
    }

    /// **Resident** K+V bytes, session-local view: what this cache's pages
    /// occupy (pages shared with forks counted in full), plus per-plane
    /// quantization constants. Preallocated-but-unwritten page tails are
    /// *not* counted — see [`KvCache::allocated_bytes`].
    pub fn bytes(&self) -> u64 {
        self.page_sum(|p| p.resident_bytes()) + self.overhead_bytes()
    }

    /// **Allocated** K+V bytes, session-local view: the full-page
    /// footprint of every page this cache references, plus per-plane
    /// constants. Always ≥ [`KvCache::bytes`].
    pub fn allocated_bytes(&self) -> u64 {
        let page_rows = self.arena.page_rows();
        self.page_sum(|p| p.allocated_bytes(page_rows)) + self.overhead_bytes()
    }

    fn page_sum(&self, f: impl Fn(&PagePayload) -> u64) -> u64 {
        self.k
            .iter()
            .chain(&self.v)
            .flat_map(|plane| &plane.pages)
            .map(|&pid| f(&self.arena.payload(pid)))
            .sum()
    }

    /// Session-local per-tier page accounting (pages shared with forks are
    /// counted by every owner; the arena's [`KvArena::stats`] count each
    /// page once).
    pub fn tier_stats(&self) -> KvTierStats {
        let page_rows = self.arena.page_rows();
        let mut out = KvTierStats::default();
        for plane in self.k.iter().chain(&self.v) {
            for &pid in &plane.pages {
                let p = self.arena.payload(pid);
                let t = p.tier().index();
                out.pages[t] += 1;
                out.resident[t] += p.resident_bytes();
                out.allocated[t] += p.allocated_bytes(page_rows);
            }
        }
        out
    }

    /// Runtime requantization events summed across every plane.
    pub fn requants(&self) -> u64 {
        self.k
            .iter()
            .chain(&self.v)
            .filter_map(|p| p.quant.as_ref())
            .map(|q| q.requants)
            .sum()
    }

    fn plane(&self, is_k: bool, slot: usize) -> &Plane {
        if is_k {
            &self.k[slot]
        } else {
            &self.v[slot]
        }
    }

    fn plane_mut(&mut self, is_k: bool, slot: usize) -> &mut Plane {
        if is_k {
            &mut self.k[slot]
        } else {
            &mut self.v[slot]
        }
    }

    /// Appends layer `li`'s freshly projected K/V rows (`n × d_model`
    /// each), splitting the model dimension across heads. In quantized
    /// modes the rows are quantized here, against each plane's running
    /// `TMax` (first append also fixes the plane's per-channel bias).
    /// Afterwards, while the arena sits above its high-watermark, cold
    /// pages are demoted down the tier ladder.
    ///
    /// # Errors
    ///
    /// [`EvictError`] when the arena is at its byte cap and every page of
    /// this cache is already at the int4 floor (or shared/unsealed, hence
    /// not demotable).
    ///
    /// # Panics
    ///
    /// Panics if `li` is out of range, the shapes disagree with the cache
    /// geometry, or `k` and `v` have different row counts.
    pub fn append(&mut self, li: usize, k: &Matrix, v: &Matrix) -> Result<(), EvictError> {
        assert!(li < self.layers, "layer {li} out of cache range");
        assert_eq!(k.shape(), v.shape(), "K/V row mismatch");
        assert_eq!(k.cols(), self.heads * self.head_dim, "d_model mismatch");
        for head in 0..self.heads {
            let c0 = head * self.head_dim;
            let c1 = c0 + self.head_dim;
            let slot = li * self.heads + head;
            let k_rows: Vec<&[f32]> = (0..k.rows()).map(|r| &k.row(r)[c0..c1]).collect();
            let v_rows: Vec<&[f32]> = (0..v.rows()).map(|r| &v.row(r)[c0..c1]).collect();
            self.append_plane(true, slot, &k_rows)?;
            self.append_plane(false, slot, &v_rows)?;
        }
        // Deferred arenas move this work off the appending thread: pages
        // were enqueued as demotion candidates when they sealed, and the
        // engine drains the queue at the next iteration boundary.
        if !self.arena.deferred_demotion() {
            while self.arena.over_watermark() {
                if !self.demote_one() {
                    break;
                }
            }
        }
        Ok(())
    }

    fn append_plane(&mut self, is_k: bool, slot: usize, rows: &[&[f32]]) -> Result<(), EvictError> {
        if rows.is_empty() {
            return Ok(());
        }
        let dh = self.head_dim;
        if let Some(q) = &mut self.plane_mut(is_k, slot).quant {
            if q.bias.is_empty() {
                q.bias = Arc::new(plane_bias(rows, dh));
            }
        }
        for row in rows {
            self.push_row(is_k, slot, row)?;
        }
        Ok(())
    }

    fn push_row(&mut self, is_k: bool, slot: usize, row: &[f32]) -> Result<(), EvictError> {
        let page_rows = self.arena.page_rows();
        let (len, n_pages) = {
            let plane = self.plane(is_k, slot);
            (plane.len, plane.pages.len())
        };
        if len == n_pages * page_rows {
            // Every page is full (or there are none): open a new tail page.
            let key = self.plane_key(is_k, slot);
            let id =
                self.alloc_or_demote(|| self.arena.alloc_on(key, self.fresh_payload(is_k, slot)))?;
            self.plane_mut(is_k, slot).pages.push(id);
        } else {
            // Partial tail page; copy-on-write if a fork still shares it.
            let tail = *self.plane(is_k, slot).pages.last().expect("partial tail");
            if self.arena.refs(tail) > 1 {
                let new_id = self.alloc_or_demote(|| self.arena.cow_clone(tail))?;
                *self
                    .plane_mut(is_k, slot)
                    .pages
                    .last_mut()
                    .expect("partial tail") = new_id;
            }
        }
        let arena = self.arena.clone();
        let mode = self.mode;
        let plane = self.plane_mut(is_k, slot);
        let tail = *plane.pages.last().expect("tail page");
        match &mut plane.quant {
            None => arena.with_page_mut(tail, |p| {
                let PagePayload::F32(m) = p else {
                    panic!("f32 plane holds a quantized tail page");
                };
                m.push_row(row);
            }),
            Some(q) => {
                let bits = mode.bits();
                let groups = mode.num_groups();
                arena.with_page_mut(tail, |p| {
                    let PagePayload::Quant(page) = p else {
                        panic!("quantized plane holds an f32 tail page");
                    };
                    q.push_into(page, row, bits, groups);
                });
            }
        }
        plane.len += 1;
        let sealed = plane.len.is_multiple_of(page_rows);
        if sealed && arena.deferred_demotion() && self.append_tier() != PageTier::Int4 {
            // The page just sealed: it becomes a demotion candidate under
            // a structural clock key, so concurrent enqueues from pool
            // workers drain in the same order at any thread count.
            let plane = self.plane(is_k, slot);
            let page_idx = plane.pages.len() - 1;
            let key = DemoteKey {
                clock: arena.clock(),
                owner: self.owner,
                plane: self.plane_key(is_k, slot) as u32,
                page_idx: page_idx as u32,
            };
            arena.enqueue_demotion(key, plane.pages[page_idx], self.append_tier());
        }
        Ok(())
    }

    /// Exact allocated bytes the next single-position append will newly
    /// reserve from the arena: a fresh page for every plane whose pages
    /// are all full, plus a copy-on-write clone of any shared partial
    /// tail. Zero when the next row lands entirely in exclusive partial
    /// tails. Used by lockstep batch decode to pre-drain headroom so
    /// mid-iteration allocations never race the cap.
    pub fn next_append_alloc_bytes(&self) -> u64 {
        let page_rows = self.arena.page_rows();
        let mut need = 0u64;
        for is_k in [true, false] {
            for slot in 0..self.layers * self.heads {
                let plane = self.plane(is_k, slot);
                if plane.len == plane.pages.len() * page_rows {
                    need += self.fresh_payload(is_k, slot).allocated_bytes(page_rows);
                } else {
                    let tail = *plane.pages.last().expect("partial tail");
                    if self.arena.refs(tail) > 1 {
                        need += self.arena.payload(tail).allocated_bytes(page_rows);
                    }
                }
            }
        }
        need
    }

    /// An empty page payload at this plane's append tier.
    fn fresh_payload(&self, is_k: bool, slot: usize) -> PagePayload {
        let page_rows = self.arena.page_rows();
        match &self.plane(is_k, slot).quant {
            None => PagePayload::F32(Matrix::with_row_capacity(self.head_dim, page_rows)),
            Some(q) => PagePayload::Quant(QuantPage {
                rows: QuantRows::with_row_capacity(
                    self.head_dim,
                    self.mode.bits(),
                    self.mode.num_groups() > 1,
                    page_rows,
                ),
                scales: q.scales.clone(),
                bias: q.bias.clone(),
                tmax: q.tmax,
                page_local: false,
            }),
        }
    }

    /// Demote-and-retry allocation: `alloc` (a fresh page or a
    /// copy-on-write clone) is retried after each demotion of this cache's
    /// own pages. Interim cap refusals are counted by the arena as
    /// `alloc_retries`; only the terminal refusal — demotion ladder at its
    /// floor, append about to fail — is an `evict_failure`.
    fn alloc_or_demote(
        &self,
        alloc: impl Fn() -> Result<PageId, EvictError>,
    ) -> Result<PageId, EvictError> {
        loop {
            let err = match alloc() {
                Ok(id) => return Ok(id),
                Err(e) => e,
            };
            if !self.demote_one() {
                self.arena.note_evict_failure();
                return Err(err);
            }
        }
    }

    /// Demotes this cache's coldest eligible page one tier down the
    /// f32 → int8 → int4 ladder, in place. Eligible pages are *sealed*
    /// (full — the live tail is still being written under plane scales)
    /// and *exclusively owned* (a fork sharing the page may still need its
    /// exact bytes). Scan order is deterministic: tier-major (all f32
    /// candidates before any int8), then K planes before V, layer/head
    /// ascending, oldest page first — so the coldest exact page goes
    /// first. Returns `false` when nothing is demotable (the floor).
    fn demote_one(&self) -> bool {
        let page_rows = self.arena.page_rows();
        for (tier, target) in [
            (PageTier::F32, KvCacheMode::Int8),
            (PageTier::Int8, KvCacheMode::Int4),
        ] {
            for plane in self.k.iter().chain(&self.v) {
                for (idx, &pid) in plane.pages.iter().enumerate() {
                    if plane.len < (idx + 1) * page_rows {
                        continue; // unsealed tail
                    }
                    if self.arena.refs(pid) > 1 {
                        continue; // shared with a fork
                    }
                    if self.arena.payload(pid).tier() != tier {
                        continue;
                    }
                    // Shrink-only: at tiny head dims a lower rung's scale
                    // snapshot can outweigh its code savings, and the
                    // in-place edit path applies the delta without a cap
                    // check — a non-shrinking demotion must be skipped.
                    let shrank = self.arena.with_page_mut(pid, |p| {
                        let d = demote_payload(p, target);
                        if d.allocated_bytes(page_rows) < p.allocated_bytes(page_rows) {
                            *p = d;
                            true
                        } else {
                            false
                        }
                    });
                    if shrank {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// The configured read path for quantized planes.
    pub fn read_path(&self) -> KvReadPath {
        self.read_path
    }

    /// Selects how quantized planes are read (the integer fast path by
    /// default; [`KvReadPath::Dequant`] restores the legacy
    /// dequantize-on-read behaviour for A/B comparison). No-op for `f32`
    /// caches, which have a single exact path.
    pub fn set_read_path(&mut self, path: KvReadPath) {
        self.read_path = path;
    }

    /// Gathers one plane's pages into a `len × head_dim` matrix: f32 pages
    /// are copied row-for-row (bit-identical to the appended rows),
    /// quantized pages are dequantized under their own frozen snapshot.
    fn gather(&self, plane: &Plane) -> Matrix {
        let mut out = Matrix::with_row_capacity(self.head_dim, plane.len);
        for &pid in &plane.pages {
            let payload = self.arena.payload(pid);
            match &*payload {
                PagePayload::F32(m) => {
                    for r in 0..m.rows() {
                        out.push_row(m.row(r));
                    }
                }
                PagePayload::Quant(q) => {
                    let dh = q.rows.cols();
                    let mut qs = vec![0i32; dh];
                    let mut gs = vec![0u8; dh];
                    let mut row = vec![0.0f32; dh];
                    for r in 0..q.rows.rows() {
                        q.rows.decode_row_into(r, &mut qs, &mut gs);
                        for (c, o) in row.iter_mut().enumerate() {
                            *o = qs[c] as f32 * q.scales[gs[c] as usize] + q.bias[c];
                        }
                        out.push_row(&row);
                    }
                }
            }
        }
        out
    }

    /// Cached keys for `(li, head)`: a `len × head_dim` matrix gathered
    /// from the plane's page list (exact rows in `f32` mode; dequantized
    /// under each page's frozen snapshot otherwise — the legacy read path:
    /// decode attention uses [`KvCache::attn_scores_quant`] instead).
    pub fn head_k(&self, li: usize, head: usize) -> Matrix {
        self.gather(&self.k[li * self.heads + head])
    }

    /// Cached values for `(li, head)`: a `len × head_dim` matrix gathered
    /// from the plane's page list. Same contract as [`KvCache::head_k`].
    pub fn head_v(&self, li: usize, head: usize) -> Matrix {
        self.gather(&self.v[li * self.heads + head])
    }

    /// Integer-domain attention scores of the (already scaled) query row
    /// `qh` against the cached K plane of `(li, head)`: a `1 × len` row,
    /// computed directly on the packed codes page by page. Each page's dot
    /// accumulates per power-of-two group in i64; the α = 2 shift-combine
    /// applies the page's own frozen scales once per dot, and the page's
    /// bias dot (`Σ_c qh[c]·bias[c]`, full f32 precision) is added per
    /// row. The accumulation chain is fixed (pages ascending, columns
    /// ascending, zero-skip on the query code) and integer sums are exact,
    /// so the result is bit-identical across GEMM backends and thread
    /// counts.
    ///
    /// Returns `None` when the cache mode is `f32` or the read path is
    /// [`KvReadPath::Dequant`] — the caller then falls back to the f32
    /// product over the gathered plane.
    pub fn attn_scores_quant(&self, li: usize, head: usize, qh: &[f32]) -> Option<Matrix> {
        if self.read_path != KvReadPath::Integer || self.mode == KvCacheMode::F32 {
            return None;
        }
        let plane = &self.k[li * self.heads + head];
        let dh = self.head_dim;
        debug_assert_eq!(qh.len(), dh);
        let (xq, x_scale) = quantize_act(qh);
        let mut out = Vec::with_capacity(plane.len);
        for &pid in &plane.pages {
            let payload = self.arena.payload(pid);
            let PagePayload::Quant(qp) = &*payload else {
                unreachable!("quantized plane holds an f32 page");
            };
            let plen = qp.rows.rows();
            if plen == 0 {
                continue;
            }
            let groups = qp.scales.len();
            let bits = qp.rows.bits();
            let mut bias_dot = 0.0f32;
            for (x, b) in qh.iter().zip(qp.bias.iter()) {
                bias_dot += x * b;
            }
            let check = !gemm::kv_dot_cannot_overflow(dh, KV_ACT_BITS, bits, groups);
            let mut acc = vec![0i64; plen * groups];
            let mut events =
                gemm::active_backend().kv_score_block(&qp.rows, &xq, groups, check, &mut acc);
            let s_last = *qp.scales.last().expect("page scale snapshot");
            let factor = x_scale * s_last;
            for j in 0..plen {
                let combined =
                    combine_groups(&acc[j * groups..(j + 1) * groups], check, &mut events);
                out.push(combined as f32 * factor + bias_dot);
            }
            record_dot_metrics(plen, check, events);
        }
        metrics::KV_INT_DOTS.add(out.len() as u64);
        metrics::KV_INT_DOT_MACS.add((out.len() * dh) as u64);
        let len = out.len();
        Some(Matrix::from_vec(1, len, out).expect("score row shape"))
    }

    /// Integer-domain attention-value product of the probability row
    /// `probs` (length `len`) against the cached V plane of `(li, head)`:
    /// a `1 × head_dim` row computed directly on the packed codes page by
    /// page (each page contributes its slice of the probability row under
    /// its own frozen scales; contributions sum in page order). Same
    /// `None` contract and determinism argument as
    /// [`KvCache::attn_scores_quant`].
    pub fn attn_values_quant(&self, li: usize, head: usize, probs: &[f32]) -> Option<Matrix> {
        if self.read_path != KvReadPath::Integer || self.mode == KvCacheMode::F32 {
            return None;
        }
        let plane = &self.v[li * self.heads + head];
        let dh = self.head_dim;
        debug_assert_eq!(probs.len(), plane.len);
        let mut out = vec![0.0f32; dh];
        if plane.len > 0 {
            let (pq, p_scale) = quantize_act(probs);
            let mut off = 0usize;
            for &pid in &plane.pages {
                let payload = self.arena.payload(pid);
                let PagePayload::Quant(qp) = &*payload else {
                    unreachable!("quantized plane holds an f32 page");
                };
                let plen = qp.rows.rows();
                if plen == 0 {
                    continue;
                }
                let groups = qp.scales.len();
                let bits = qp.rows.bits();
                let mut psum = 0.0f32;
                for &p in &probs[off..off + plen] {
                    psum += p;
                }
                let check = !gemm::kv_dot_cannot_overflow(plen, KV_ACT_BITS, bits, groups);
                let mut acc = vec![0i64; groups * dh];
                let mut events = gemm::active_backend().kv_attn_block(
                    &qp.rows,
                    &pq[off..off + plen],
                    groups,
                    check,
                    &mut acc,
                );
                let s_last = *qp.scales.last().expect("page scale snapshot");
                let factor = p_scale * s_last;
                let mut col_accs = vec![0i64; groups];
                for (c, o) in out.iter_mut().enumerate() {
                    for (g, ca) in col_accs.iter_mut().enumerate() {
                        *ca = acc[g * dh + c];
                    }
                    let combined = combine_groups(&col_accs, check, &mut events);
                    *o += combined as f32 * factor + qp.bias[c] * psum;
                }
                record_dot_metrics(dh, check, events);
                off += plen;
            }
        }
        metrics::KV_INT_DOTS.add(dh as u64);
        metrics::KV_INT_DOT_MACS.add((probs.len() * dh) as u64);
        Some(Matrix::from_vec(1, dh, out).expect("attn row shape"))
    }
}

impl Clone for KvCache {
    /// Copy-on-write fork: retains every page (the fork shares the prefix
    /// physically) and re-publishes only the plane-constant overhead. The
    /// first divergent append onto a shared page copies it.
    fn clone(&self) -> Self {
        for plane in self.k.iter().chain(&self.v) {
            for &pid in &plane.pages {
                self.arena.retain(pid);
            }
        }
        let cache = Self {
            layers: self.layers,
            heads: self.heads,
            head_dim: self.head_dim,
            mode: self.mode,
            read_path: self.read_path,
            arena: self.arena.clone(),
            owner: self.arena.register_owner(),
            k: self.k.clone(),
            v: self.v.clone(),
        };
        cache.publish_overhead(true);
        cache
    }
}

impl Drop for KvCache {
    fn drop(&mut self) {
        for plane in self.k.iter().chain(&self.v) {
            for &pid in &plane.pages {
                self.arena.release(pid);
            }
        }
        self.publish_overhead(false);
    }
}

/// A borrowed model the engine can decode with: either execution path of
/// the shared pipeline.
#[derive(Clone, Copy)]
pub enum ModelRef<'m> {
    /// The exact FP32 reference model.
    Reference(&'m ReferenceModel),
    /// A calibrated quantized model.
    Quantized(&'m QuantizedModel),
}

impl<'m> From<&'m ReferenceModel> for ModelRef<'m> {
    fn from(m: &'m ReferenceModel) -> Self {
        Self::Reference(m)
    }
}

impl<'m> From<&'m QuantizedModel> for ModelRef<'m> {
    fn from(m: &'m QuantizedModel) -> Self {
        Self::Quantized(m)
    }
}

impl<'m> ModelRef<'m> {
    /// The model's shape — public so layers above the engine (the serving
    /// scheduler) can size traffic, KV budgets, and vocab-bounded token
    /// streams without reaching into the weights.
    pub fn shape(&self) -> &'m ModelShape {
        &self.weights().shape
    }

    fn weights(&self) -> &'m TransformerWeights {
        match self {
            Self::Reference(m) => m.weights(),
            Self::Quantized(m) => m.weights(),
        }
    }

    fn emb_t(&self) -> &'m Matrix {
        match self {
            Self::Reference(m) => m.emb_t(),
            Self::Quantized(m) => m.emb_t(),
        }
    }

    fn exec(&self) -> Exec<'m> {
        match self {
            Self::Reference(m) => m.exec(),
            Self::Quantized(m) => m.exec(),
        }
    }
}

/// Why a [`DecodeSession::step`] could not run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepError {
    /// The session holds no cached positions yet — prefill first.
    NotPrefilled,
    /// The next position would exceed the model's positional-embedding
    /// table (`max_seq` rows). The cache *storage* could grow further; the
    /// model cannot embed the position, so the session refuses the step.
    SequenceFull {
        /// The model's context window.
        max_seq: usize,
    },
    /// The fed token id is outside the vocabulary.
    TokenOutOfVocab {
        /// The offending token id.
        token: usize,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// The KV arena is at its byte cap and the session's demotion ladder
    /// has reached the int4 floor — no page could be allocated for the
    /// appended position.
    KvExhausted(EvictError),
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotPrefilled => write!(f, "step requires a prefilled session"),
            Self::SequenceFull { max_seq } => {
                write!(f, "sequence is full: the context window is {max_seq}")
            }
            Self::TokenOutOfVocab { token, vocab } => {
                write!(f, "token id {token} out of vocabulary (size {vocab})")
            }
            Self::KvExhausted(e) => write!(f, "kv cache append failed: {e}"),
        }
    }
}

impl Error for StepError {}

/// Why a [`BatchEngine`] call could not run as a whole.
///
/// Per-session failures (a single slot's [`StepError`]) are *not* batch
/// errors — [`BatchEngine::try_step_all`] reports those per slot so one
/// full session cannot discard every other session's logits. `BatchError`
/// covers the two batch-level cases: a structurally malformed call
/// (argument length ≠ session count) and, for the legacy collapsed
/// [`BatchEngine::step_all`] signature, the lowest-indexed slot's error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// The caller passed one argument per session but the counts differ.
    LengthMismatch {
        /// Sessions under management.
        expected: usize,
        /// Arguments actually supplied.
        got: usize,
    },
    /// A per-session step failed (collapsed form; see [`BatchEngine::step_all`]).
    Step(StepError),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LengthMismatch { expected, got } => {
                write!(f, "batch call expects {expected} arguments, got {got}")
            }
            Self::Step(e) => write!(f, "batch step failed: {e}"),
        }
    }
}

impl Error for BatchError {}

impl From<StepError> for BatchError {
    fn from(e: StepError) -> Self {
        Self::Step(e)
    }
}

/// One in-flight generation: a model reference plus its paged KV cache.
///
/// The aggregate footprint gauges (`metrics::engine::KV_CACHE_BYTES` /
/// `KV_CACHE_ALLOCATED_BYTES`) are maintained by the arena (page bytes,
/// shared pages counted once) and the cache (per-plane constants), so they
/// track live physical bytes across sessions — forking a session adds only
/// what it physically adds.
///
/// `clone()` (and its named alias [`DecodeSession::fork`]) is a
/// copy-on-write fork: the clone shares the cache's pages and copies a
/// page only on divergent append.
#[derive(Clone)]
pub struct DecodeSession<'m> {
    model: ModelRef<'m>,
    cache: KvCache,
    last_step_macs: u64,
    last_step_kv_int_macs: u64,
}

impl<'m> DecodeSession<'m> {
    /// A fresh session over `model` with an empty `f32` cache on a
    /// private, unbounded arena (the bit-parity path).
    pub fn new(model: impl Into<ModelRef<'m>>) -> Self {
        Self::with_cache_mode(model, KvCacheMode::F32)
    }

    /// A fresh session whose cache stores K/V in `mode`, on a private,
    /// unbounded arena.
    pub fn with_cache_mode(model: impl Into<ModelRef<'m>>, mode: KvCacheMode) -> Self {
        Self::with_arena(model, mode, &KvArena::default())
    }

    /// A fresh session drawing cache pages from a shared `arena` —
    /// the serving configuration: many sessions, one page pool, prefix
    /// sharing via [`DecodeSession::fork`].
    pub fn with_arena(model: impl Into<ModelRef<'m>>, mode: KvCacheMode, arena: &KvArena) -> Self {
        let model = model.into();
        let cache = KvCache::with_arena(&model.weights().shape, mode, arena);
        Self {
            model,
            cache,
            last_step_macs: 0,
            last_step_kv_int_macs: 0,
        }
    }

    /// Copy-on-write fork (a named alias for `clone()`): the fork shares
    /// every cache page with this session and copies a page only when one
    /// owner appends to it — the prefill-once, fork-many serving shape.
    pub fn fork(&self) -> Self {
        self.clone()
    }

    /// The arena this session's cache draws pages from.
    pub fn arena(&self) -> &KvArena {
        self.cache.arena()
    }

    /// Selects the quantized-cache read path (integer-domain by default);
    /// see [`KvCache::set_read_path`].
    pub fn set_kv_read_path(&mut self, path: KvReadPath) {
        self.cache.set_read_path(path);
    }

    /// Ingests the prompt in one full-sequence pass, filling the KV cache,
    /// and returns next-token logits for every prompt position
    /// (`n × vocab` — the last row seeds generation).
    ///
    /// Prefill logits are exact in every cache mode (the full-sequence
    /// pass attends to its own fresh K/V); quantized modes only affect
    /// what later [`step`]s read back from the cache.
    ///
    /// # Panics
    ///
    /// Panics if the session already holds cached positions, if the arena
    /// reaches its eviction floor mid-prompt (use
    /// [`DecodeSession::try_prefill`] to handle that as a value), or on
    /// the same token-validation conditions as the full forward pass.
    ///
    /// [`step`]: DecodeSession::step
    pub fn prefill(&mut self, tokens: &[usize]) -> Matrix {
        self.try_prefill(tokens)
            .unwrap_or_else(|e| panic!("kv arena exhausted during prefill: {e}"))
    }

    /// [`DecodeSession::prefill`], but an arena at its eviction floor
    /// comes back as a typed [`EvictError`] instead of a panic (the
    /// admission-control path).
    ///
    /// # Errors
    ///
    /// [`EvictError`] when a page allocation fails at the arena's byte cap
    /// with nothing left to demote. The session's cache may hold a partial
    /// prompt afterwards; callers should drop it.
    pub fn try_prefill(&mut self, tokens: &[usize]) -> Result<Matrix, EvictError> {
        assert!(
            self.cache.is_empty(),
            "prefill requires an empty session; this one holds {} positions",
            self.cache.len()
        );
        let _span = metrics::PREFILL_TIME.span();
        let w = self.model.weights();
        let exec = self.model.exec();
        let hidden = pipeline::forward_internal(w, tokens, &exec, None, Some(&mut self.cache))?;
        metrics::PREFILLS.incr();
        metrics::PREFILL_TOKENS.add(tokens.len() as u64);
        Ok(pipeline::lm_head(w, self.model.emb_t(), &hidden))
    }

    /// Feeds one token at the next sequence position and returns its
    /// next-token logits (`1 × vocab`), attending against the cache.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::NotPrefilled`] on an empty session,
    /// [`StepError::SequenceFull`] when the next position would exceed the
    /// model's `max_seq` positional-embedding table (the cache storage
    /// could grow further, the model cannot embed the position),
    /// [`StepError::TokenOutOfVocab`] for an out-of-range token id, and
    /// [`StepError::KvExhausted`] when the arena is at its byte cap with
    /// nothing left to demote.
    pub fn step(&mut self, token: usize) -> Result<Matrix, StepError> {
        let w = self.model.weights();
        let shape = &w.shape;
        let pos = self.cache.len();
        if pos == 0 {
            return Err(StepError::NotPrefilled);
        }
        if pos >= shape.max_seq {
            return Err(StepError::SequenceFull {
                max_seq: shape.max_seq,
            });
        }
        if token >= shape.vocab {
            return Err(StepError::TokenOutOfVocab {
                token,
                vocab: shape.vocab,
            });
        }

        let _span = metrics::DECODE_STEP_TIME.span();
        let exec = self.model.exec();
        let mut macs = 0u64;
        let mut int_macs = 0u64;
        let mut h = pipeline::embed(w, &[token], pos);
        for (li, layer) in w.layers.iter().enumerate() {
            h = pipeline::layer_decode(
                w,
                li,
                layer,
                h,
                &exec,
                &mut self.cache,
                pos,
                &mut macs,
                &mut int_macs,
            )
            .map_err(StepError::KvExhausted)?;
        }
        let hidden = pipeline::apply_norm(&h, &w.final_gamma, &w.final_beta, shape.norm);
        self.last_step_macs = macs;
        self.last_step_kv_int_macs = int_macs;
        metrics::DECODE_STEPS.incr();
        metrics::DECODE_MACS.add(macs);
        Ok(pipeline::lm_head(w, self.model.emb_t(), &hidden))
    }

    /// [`DecodeSession::step`], then the greedy next token from its
    /// logits ([`DecodeSession::greedy_next`]).
    ///
    /// # Errors
    ///
    /// The [`StepError`] of the step.
    pub fn step_greedy(&mut self, token: usize) -> Result<usize, StepError> {
        let logits = self.step(token)?;
        Ok(self.greedy_next(&logits))
    }

    /// The greedy choice ([`greedy_token`]) from the last row of `logits`
    /// this session just produced — a prefill's or a step's.
    pub fn greedy_next(&self, logits: &Matrix) -> usize {
        let last = logits.rows() - 1;
        greedy_token(logits, last, self.len(), self.model.shape().vocab)
    }

    /// Cached positions so far (prompt + generated).
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the session has not been prefilled yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The session's KV cache.
    pub fn cache(&self) -> &KvCache {
        &self.cache
    }

    /// Multiply-accumulates executed by the most recent [`step`], measured
    /// from the operand shapes of the matmuls actually run (per-layer
    /// GEMMs and attention against the cache; embedding and LM head
    /// excluded, matching the simulator's `decode_step_gemms` model).
    ///
    /// [`step`]: DecodeSession::step
    pub fn last_step_macs(&self) -> u64 {
        self.last_step_macs
    }

    /// Multiply-accumulates the most recent [`step`] executed in the
    /// integer domain on packed KV codes (a subset of
    /// [`last_step_macs`]; zero in `f32` mode or on the legacy dequantize
    /// read path). Cross-checked against the simulator's
    /// `kv_int_dot_macs` model.
    ///
    /// [`step`]: DecodeSession::step
    /// [`last_step_macs`]: DecodeSession::last_step_macs
    pub fn last_step_kv_int_macs(&self) -> u64 {
        self.last_step_kv_int_macs
    }
}

/// Greedy argmax over a `1 × vocab` logits row; ties pick the lowest id.
/// Returns `None` when no logit is finite (every candidate is NaN or
/// ±infinity), which greedy decoding must treat as a degraded step rather
/// than silently emitting token 0.
fn argmax_row(logits: &Matrix, row: usize) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for c in 0..logits.cols() {
        let v = logits[(row, c)];
        if !v.is_finite() {
            continue;
        }
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((c, v)),
        }
    }
    best.map(|(c, _)| c)
}

/// Greedy token choice with the degraded-row fallback: an all-non-finite
/// logits row counts through the degradation ladder
/// (`decode_argmax_sanitized`) and yields the deterministic token
/// `pos % vocab` — position-dependent (so a poisoned rollout does not
/// repeat one token forever) and independent of thread count.
///
/// Public so decode loops outside this crate share the exact fallback
/// semantics instead of re-deriving them; a session applies it through
/// [`DecodeSession::greedy_next`].
pub fn greedy_token(logits: &Matrix, row: usize, pos: usize, vocab: usize) -> usize {
    match argmax_row(logits, row) {
        Some(t) => t,
        None => {
            tender_metrics::faults::DECODE_ARGMAX_SANITIZED.incr();
            pos % vocab
        }
    }
}

/// Runs multiple [`DecodeSession`]s through the shared worker pool.
///
/// Sessions are independent, so the engine fans each batch operation out
/// as one pool task per session; results come back in session order and
/// every session is touched exactly once per call, so output is
/// deterministic at any thread count.
pub struct BatchEngine<'m> {
    sessions: Vec<DecodeSession<'m>>,
}

impl<'m> BatchEngine<'m> {
    /// Wraps the given sessions (typically fresh ones, one per prompt).
    pub fn new(sessions: Vec<DecodeSession<'m>>) -> Self {
        Self { sessions }
    }

    /// `n` copy-on-write forks of a prefilled template session — the
    /// shared-prefix batch shape: the template's prompt is prefilled once
    /// and every fork shares its pages until it diverges.
    pub fn forked(template: &DecodeSession<'m>, n: usize) -> Self {
        Self::new((0..n).map(|_| template.fork()).collect())
    }

    /// Sessions under management.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the engine holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// [`BatchError::LengthMismatch`] unless `got` arguments are one per
    /// session.
    fn check_len(&self, got: usize) -> Result<(), BatchError> {
        let expected = self.sessions.len();
        if got != expected {
            return Err(BatchError::LengthMismatch { expected, got });
        }
        Ok(())
    }

    /// Runs `f(i, session)` for every session, one pool task each, and
    /// returns the results in session order.
    fn par_each<R: Send>(
        &mut self,
        f: impl Fn(usize, &mut DecodeSession<'m>) -> R + Sync,
    ) -> Vec<R> {
        let mut cells: Vec<_> = self.sessions.iter_mut().map(|s| (s, None)).collect();
        pool::par_chunks_mut(&mut cells, 1, |i, cell| cell[0].1 = Some(f(i, cell[0].0)));
        cells
            .into_iter()
            .map(|(_, r)| r.expect("every session ran"))
            .collect()
    }

    /// Prefills session `i` with `prompts[i]` in parallel, returning each
    /// session's full-prompt logits in session order.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::LengthMismatch`] when the prompt count
    /// differs from the session count — a malformed caller must not be
    /// able to abort a serving loop with a panic.
    pub fn prefill_all(&mut self, prompts: &[Vec<usize>]) -> Result<Vec<Matrix>, BatchError> {
        self.check_len(prompts.len())?;
        Ok(self.par_each(|i, s| s.prefill(&prompts[i])))
    }

    /// Steps session `i` with `tokens[i]` in parallel, returning each
    /// session's own `Result` in session order: one slot hitting
    /// `SequenceFull` (or any other [`StepError`]) no longer discards the
    /// logits every other session just computed.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::LengthMismatch`] when the token count differs
    /// from the session count; per-session failures come back inside the
    /// `Vec`.
    #[allow(clippy::type_complexity)]
    pub fn try_step_all(
        &mut self,
        tokens: &[usize],
    ) -> Result<Vec<Result<Matrix, StepError>>, BatchError> {
        self.check_len(tokens.len())?;
        Ok(self.par_each(|i, s| s.step(tokens[i])))
    }

    /// Collapsed form of [`BatchEngine::try_step_all`]: all logits in
    /// session order, or the lowest-indexed failing session's error.
    ///
    /// # Errors
    ///
    /// [`BatchError::LengthMismatch`] for a malformed call, or
    /// [`BatchError::Step`] carrying the lowest-indexed slot's
    /// [`StepError`]. Callers that need the surviving sessions' logits
    /// should use [`BatchEngine::try_step_all`].
    pub fn step_all(&mut self, tokens: &[usize]) -> Result<Vec<Matrix>, BatchError> {
        self.try_step_all(tokens)?
            .into_iter()
            .map(|r| r.map_err(BatchError::from))
            .collect()
    }

    /// Prefills every session with its prompt, then greedily decodes up to
    /// `steps` tokens per session in [`BatchEngine::lockstep_decode`].
    /// Results come back in session order.
    ///
    /// Prompts prefill in parallel ([`BatchEngine::prefill_all`]). When
    /// every session shares one capped arena they prefill sequentially in
    /// session order instead, each followed by a boundary drain, so
    /// demote-and-retry pressure resolves identically at any thread count;
    /// a prompt the arena cannot hold truncates its rollout to nothing.
    ///
    /// # Errors
    ///
    /// [`BatchError::LengthMismatch`] when the prompt count differs from
    /// the session count.
    pub fn generate_greedy(
        &mut self,
        prompts: &[Vec<usize>],
        steps: usize,
    ) -> Result<Vec<Vec<usize>>, BatchError> {
        self.check_len(prompts.len())?;
        let arena = self.shared_capped_arena();
        let next = match &arena {
            None => self.par_each(|i, s| {
                let logits = s.prefill(&prompts[i]);
                Some(s.greedy_next(&logits))
            }),
            Some(arena) => (self.sessions.iter_mut().zip(prompts))
                .map(|(s, prompt)| {
                    arena.advance_clock();
                    let next = s.try_prefill(prompt).ok().map(|l| s.greedy_next(&l));
                    if next.is_none() {
                        metrics::DECODE_TRUNCATED.incr();
                    }
                    drain_demotions(arena, 0);
                    next
                })
                .collect(),
        };
        Ok(self.lockstep_decode(arena.as_ref(), next, steps))
    }

    /// Greedy decode for *already prefilled* sessions (typically forks of
    /// a shared-prefix template): session `i` starts from seed token
    /// `seeds[i]` and decodes up to `steps` tokens in
    /// [`BatchEngine::lockstep_decode`].
    ///
    /// # Errors
    ///
    /// [`BatchError::LengthMismatch`] when the seed count differs from the
    /// session count.
    pub fn resume_greedy(
        &mut self,
        seeds: &[usize],
        steps: usize,
    ) -> Result<Vec<Vec<usize>>, BatchError> {
        self.check_len(seeds.len())?;
        let arena = self.shared_capped_arena();
        let next = seeds.iter().map(|&s| Some(s)).collect();
        Ok(self.lockstep_decode(arena.as_ref(), next, steps))
    }

    /// The one arena every session draws pages from, if it is shared by
    /// all of them *and* byte-capped. Private arenas, mixed arenas, or an
    /// uncapped shared arena come back `None` — those rollouts cannot
    /// starve each other, so their steps need no reservation walk.
    fn shared_capped_arena(&self) -> Option<KvArena> {
        let first = self.sessions.first()?.arena();
        first.config().capacity_bytes?;
        (self.sessions.iter())
            .all(|s| s.arena().same_arena(first))
            .then(|| first.clone())
    }

    /// The greedy decode loop (argmax, ties to the lowest id; a row with no
    /// finite logit degrades to the deterministic fallback token and is
    /// counted — see `decode_argmax_sanitized`). Each iteration feeds every
    /// live session its pending token, one pool task per session. A
    /// rollout whose step fails with a [`StepError`] (typically
    /// `SequenceFull` when prompt plus rollout would exceed the context
    /// window) keeps the tokens decoded so far, including the one it
    /// failed to feed, and is counted in `metrics::engine::DECODE_TRUNCATED`
    /// — one over-long rollout cannot poison the batch.
    ///
    /// With one capped shared `arena`, each iteration first runs
    /// [`BatchEngine::reserve_step`] so the parallel step never contends
    /// the cap. Private or uncapped arenas (`arena` is `None`) cannot
    /// starve each other and skip it.
    fn lockstep_decode(
        &mut self,
        arena: Option<&KvArena>,
        mut next: Vec<Option<usize>>,
        steps: usize,
    ) -> Vec<Vec<usize>> {
        let mut outs: Vec<Vec<usize>> = next.iter().map(|_| Vec::with_capacity(steps)).collect();
        for _ in 0..steps {
            if next.iter().all(Option::is_none) {
                break;
            }
            if let Some(arena) = arena {
                self.reserve_step(arena, &mut next, &mut outs);
            }
            let stepped = self.par_each(|i, s| next[i].map(|tok| (tok, s.step_greedy(tok).ok())));
            for (i, r) in stepped.into_iter().enumerate() {
                let Some((tok, nt)) = r else { continue };
                outs[i].push(tok);
                if nt.is_none() {
                    metrics::DECODE_TRUNCATED.incr();
                }
                next[i] = nt;
            }
        }
        outs
    }

    /// The boundary sequence before each lockstep iteration on one capped
    /// arena; afterwards every session still in `next` has its append
    /// covered:
    ///
    /// 1. advance the arena clock (new demotion epoch);
    /// 2. price the upcoming step exactly — [`KvCache::next_append_alloc_bytes`]
    ///    per live session (page opens and shared-tail CoW are the only
    ///    allocations a single append can make);
    /// 3. drain the demotion queue ([`drain_demotions`]) until the
    ///    watermark is respected *and* the whole step fits;
    /// 4. if it still does not fit, demote each session's own pages in
    ///    session order, truncating (in session order) any session whose
    ///    need cannot be covered, as a failed step would.
    ///
    /// Every decision depends only on session order, queue keys, and byte
    /// arithmetic, so transcripts are byte-identical at any thread count
    /// and under any GEMM backend.
    fn reserve_step(&self, arena: &KvArena, next: &mut [Option<usize>], outs: &mut [Vec<usize>]) {
        arena.advance_clock();
        let needs: Vec<u64> = (self.sessions.iter().zip(next.iter()))
            .map(|(s, tok)| tok.map_or(0, |_| s.cache().next_append_alloc_bytes()))
            .collect();
        drain_demotions(arena, needs.iter().sum());
        // Deterministic reservation walk: commit each session's need
        // against the live headroom in session order; demote that
        // session's own pages when short, truncate when at the floor.
        let mut committed = 0u64;
        for (i, need) in needs.into_iter().enumerate() {
            let Some(tok) = next[i] else { continue };
            let fits = || committed + need <= arena.headroom_bytes();
            while !fits() && self.sessions[i].cache.demote_one() {}
            if fits() {
                committed += need;
            } else {
                outs[i].push(tok);
                next[i] = None;
                metrics::DECODE_TRUNCATED.incr();
            }
        }
    }

    /// Consumes the engine, returning its sessions in order.
    pub fn into_sessions(self) -> Vec<DecodeSession<'m>> {
        self.sessions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::ModelShape;
    use crate::synthetic::SyntheticLlm;
    use tender_tensor::arena::DEFAULT_PAGE_ROWS;
    use tender_tensor::ArenaConfig;

    fn tiny() -> (ModelShape, SyntheticLlm) {
        let shape = ModelShape::tiny_test();
        let model = SyntheticLlm::generate(&shape, 11);
        (shape, model)
    }

    fn tokens(n: usize, vocab: usize, salt: usize) -> Vec<usize> {
        (0..n).map(|i| (i * 31 + salt * 17 + 5) % vocab).collect()
    }

    #[test]
    fn kv_cache_grows_by_pages_past_initial_allocation() {
        // Growth policy: storage is paged, allocated on demand from the
        // arena; the max_seq limit is the *session's* concern (see
        // `step_past_max_seq_is_sequence_full`).
        let (shape, _) = tiny();
        let arena = KvArena::new(ArenaConfig {
            page_rows: 2,
            ..ArenaConfig::default()
        });
        let mut cache = KvCache::with_arena(&shape, KvCacheMode::F32, &arena);
        assert_eq!(cache.capacity(), 0, "no pages before the first append");
        assert!(cache.is_empty());
        let k = Matrix::filled(3, shape.d_model, 1.0);
        let v = Matrix::filled(3, shape.d_model, 2.0);
        for li in 0..shape.layers {
            cache.append(li, &k, &v).expect("uncapped arena");
        }
        assert_eq!(cache.len(), 3);
        // 3 rows on 2-row pages: two pages per plane, capacity 4.
        assert_eq!(cache.capacity(), 4, "pages are allocated on demand");
        assert_eq!(
            cache.bytes(),
            (2 * 3 * shape.d_model * shape.layers * 4) as u64
        );
        // Resident counts rows; allocated counts whole pages.
        assert_eq!(
            cache.allocated_bytes(),
            (2 * 4 * shape.d_model * shape.layers * 4) as u64
        );
        assert!(cache.allocated_bytes() >= cache.bytes());
    }

    #[test]
    fn resident_and_allocated_bytes_are_distinct_on_a_partial_page() {
        // The original accounting bug: `bytes()` reported len-based bytes
        // while storage was allocated in larger units. The two quantities
        // must be reported separately and differ until the page is full.
        let (shape, model) = tiny();
        let reference = model.reference();
        let mut session = DecodeSession::new(&reference);
        session.prefill(&tokens(5, shape.vocab, 1));
        let cache = session.cache();
        // 5 rows fit in the first default-size page of every plane.
        assert_eq!(cache.capacity(), DEFAULT_PAGE_ROWS);
        assert_eq!(
            cache.bytes(),
            (2 * 5 * shape.d_model * shape.layers * 4) as u64
        );
        assert_eq!(
            cache.allocated_bytes(),
            (2 * DEFAULT_PAGE_ROWS * shape.d_model * shape.layers * 4) as u64
        );
        assert!(cache.allocated_bytes() > cache.bytes());
    }

    #[test]
    fn kv_cache_splits_rows_per_head() {
        let (shape, _) = tiny();
        let dh = shape.head_dim();
        let mut cache = KvCache::new(&shape);
        // Column c carries value c so each head slice is recognizable.
        let k = Matrix::from_fn(1, shape.d_model, |_, c| c as f32);
        let v = Matrix::from_fn(1, shape.d_model, |_, c| -(c as f32));
        cache.append(0, &k, &v).expect("uncapped arena");
        for head in 0..shape.heads {
            let hk = cache.head_k(0, head);
            let hv = cache.head_v(0, head);
            assert_eq!(hk.shape(), (1, dh));
            for c in 0..dh {
                assert_eq!(hk[(0, c)], (head * dh + c) as f32);
                assert_eq!(hv[(0, c)], -((head * dh + c) as f32));
            }
        }
    }

    #[test]
    #[should_panic(expected = "d_model mismatch")]
    fn kv_cache_rejects_wrong_width() {
        let (shape, _) = tiny();
        let mut cache = KvCache::new(&shape);
        let bad = Matrix::zeros(1, shape.d_model + 1);
        let _ = cache.append(0, &bad, &bad);
    }

    #[test]
    fn quantized_modes_shrink_resident_bytes() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let t = tokens(16, shape.vocab, 2);
        let mut bytes = Vec::new();
        for mode in KvCacheMode::ALL {
            let mut s = DecodeSession::with_cache_mode(&reference, mode);
            s.prefill(&t[..8]);
            for &tok in &t[8..] {
                s.step(tok).expect("step");
            }
            assert_eq!(s.cache().mode(), mode);
            assert_eq!(s.len(), 16);
            bytes.push(s.cache().bytes());
        }
        let (f32b, int8b, int4b) = (bytes[0], bytes[1], bytes[2]);
        // The acceptance bar: INT8 resident ≤ 0.3× of f32 at equal length.
        assert!(
            int8b * 10 <= f32b * 3,
            "int8 {int8b} vs f32 {f32b}: ratio above 0.3"
        );
        assert!(int4b < int8b, "int4 must be smaller than int8");
    }

    #[test]
    fn quantized_cache_mode_accounting_matches_formula() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let dh = shape.head_dim();
        for mode in [KvCacheMode::Int8, KvCacheMode::Int4] {
            let mut s = DecodeSession::with_cache_mode(&reference, mode);
            s.prefill(&tokens(7, shape.vocab, 3));
            let planes = 2 * (shape.layers * shape.heads) as u64;
            // 7 rows on default 16-row pages: one page per plane, carrying
            // one scale snapshot per group.
            let pages = 7usize.div_ceil(DEFAULT_PAGE_ROWS) as u64;
            let expect = planes
                * (7 * mode.position_bytes(dh)
                    + pages * mode.num_groups() as u64 * 4
                    + mode.head_overhead_bytes(dh));
            assert_eq!(s.cache().bytes(), expect);
            let expect_alloc = planes
                * (pages
                    * (DEFAULT_PAGE_ROWS as u64 * mode.position_bytes(dh)
                        + mode.num_groups() as u64 * 4)
                    + mode.head_overhead_bytes(dh));
            assert_eq!(s.cache().allocated_bytes(), expect_alloc);
        }
    }

    #[test]
    fn quantized_cache_tracks_f32_decode() {
        // Quantized modes are approximate by design, but must stay close:
        // compare final-step logits against the f32 cache.
        let (shape, model) = tiny();
        let reference = model.reference();
        let t = tokens(12, shape.vocab, 5);
        let run = |mode: KvCacheMode| -> Matrix {
            let mut s = DecodeSession::with_cache_mode(&reference, mode);
            s.prefill(&t[..8]);
            let mut last = Matrix::zeros(1, 1);
            for &tok in &t[8..] {
                last = s.step(tok).expect("step");
            }
            last
        };
        let exact = run(KvCacheMode::F32);
        let norm: f32 = exact.row(0).iter().map(|x| x * x).sum::<f32>().sqrt();
        for (mode, bound) in [(KvCacheMode::Int8, 0.05f32), (KvCacheMode::Int4, 0.25f32)] {
            let approx = run(mode);
            let err: f32 = exact
                .row(0)
                .iter()
                .zip(approx.row(0))
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt();
            assert!(
                err <= bound * (norm + 1e-6),
                "{} cache drifted: relative error {} > {bound}",
                mode.label(),
                err / (norm + 1e-6)
            );
        }
    }

    #[test]
    fn runtime_requantization_fires_on_growing_magnitudes() {
        let (shape, _) = tiny();
        let mut cache = KvCache::with_mode(&shape, KvCacheMode::Int4);
        // Rows with doubling magnitude force TMax past its first estimate.
        for step in 0..4 {
            let mag = (step as f32 + 1.0) * (1 << step) as f32;
            let k = Matrix::filled(1, shape.d_model, mag);
            let v = Matrix::filled(1, shape.d_model, -mag);
            for li in 0..shape.layers {
                cache.append(li, &k, &v).expect("uncapped arena");
            }
        }
        assert!(
            cache.requants() > 0,
            "growing rows never triggered runtime requantization"
        );
        // The dequantized view still approximates the stored magnitudes.
        let hk = cache.head_k(0, 0);
        assert_eq!(hk.rows(), 4);
        assert!(hk.is_finite());
    }

    #[test]
    fn prefill_cache_matches_full_forward_projections() {
        // After prefill, the cache must hold exactly the K rows the full
        // pass computes — checked indirectly: step() after prefill equals
        // the full forward's last row (the parity suite), and directly
        // here: cache length and geometry match the prompt.
        let (shape, model) = tiny();
        let reference = model.reference();
        let t = tokens(9, shape.vocab, 3);
        let mut session = DecodeSession::new(&reference);
        let logits = session.prefill(&t);
        assert_eq!(logits.shape(), (9, shape.vocab));
        assert_eq!(session.len(), 9);
        assert_eq!(session.cache().head_k(0, 0).shape(), (9, shape.head_dim()));
        // Prefill logits are the full forward's logits, bit for bit.
        assert_eq!(logits, reference.forward(&t));
    }

    #[test]
    fn step_matches_full_forward_last_row() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let t = tokens(12, shape.vocab, 5);
        let mut session = DecodeSession::new(&reference);
        session.prefill(&t[..8]);
        let mut last = Matrix::zeros(1, 1);
        for &tok in &t[8..] {
            last = session.step(tok).expect("in-window step");
        }
        let full = reference.forward(&t);
        assert_eq!(last.row(0), full.row(11), "decode must be bit-identical");
    }

    #[test]
    fn forked_sessions_share_prefix_pages_and_diverge_bit_exactly() {
        // The serving shape: one template prefill, copy-on-write forks.
        let (shape, model) = tiny();
        let reference = model.reference();
        let arena = KvArena::new(ArenaConfig {
            page_rows: 4,
            ..ArenaConfig::default()
        });
        let prompt = tokens(6, shape.vocab, 4);

        let mut template = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
        template.prefill(&prompt);
        let pages_after_prefill = arena.stats().pages_total();
        assert!(pages_after_prefill > 0);

        // Forks share every page: no new allocation at fork time.
        let mut a = template.fork();
        let mut b = template.fork();
        assert_eq!(arena.stats().pages_total(), pages_after_prefill);

        // Divergent appends copy only the shared tail page.
        let la = a.step(1 % shape.vocab).expect("in-window step");
        let lb = b.step(2 % shape.vocab).expect("in-window step");
        assert!(
            arena.stats().cow_copies > 0,
            "divergence must copy-on-write"
        );

        // Each fork's logits are bit-identical to a fresh session that
        // replayed the same tokens without any sharing.
        for (tok, logits) in [(1 % shape.vocab, &la), (2 % shape.vocab, &lb)] {
            let mut fresh = DecodeSession::new(&reference);
            fresh.prefill(&prompt);
            let expect = fresh.step(tok).expect("in-window step");
            assert_eq!(
                logits.row(0),
                expect.row(0),
                "fork diverged from the unshared rollout"
            );
        }

        // Dropping every owner returns all pages to the arena.
        drop(template);
        drop(a);
        drop(b);
        assert_eq!(arena.stats().pages_total(), 0, "refcount leak");
    }

    #[test]
    fn watermark_demotes_cold_pages_and_accounting_tracks_tiers() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let dh = shape.head_dim();
        let planes = 2 * (shape.layers * shape.heads) as u64;
        // Capacity holds the full f32 prompt exactly; a 0.5 watermark
        // forces sealed pages down the demotion ladder during prefill.
        let page_rows = 2usize;
        let prompt_len = 8usize;
        let full_f32 = planes * (prompt_len as u64) * (dh as u64) * 4;
        let arena = KvArena::new(ArenaConfig {
            page_rows,
            capacity_bytes: Some(full_f32),
            watermark: 0.5,
            ..ArenaConfig::default()
        });
        let mut s = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
        s.prefill(&tokens(prompt_len, shape.vocab, 6));

        let stats = arena.stats();
        assert!(stats.demoted_int8 > 0, "watermark never demoted a page");
        let tiers = s.cache().tier_stats();
        assert_eq!(tiers.pages_total(), stats.pages_total());
        assert_eq!(tiers.resident_total(), stats.resident_total());
        assert_eq!(tiers.allocated_total(), stats.allocated_total());
        assert!(
            stats.allocated_total() <= full_f32,
            "demotion must keep the arena under its cap"
        );

        // Demoted pages still decode to finite values and the session can
        // keep stepping.
        assert!(s.cache().head_k(0, 0).is_finite());
        s.step(1 % shape.vocab).expect("post-demotion step");
    }

    #[test]
    fn drain_skips_demotions_that_would_not_shrink() {
        let page_rows = 2usize;
        let cols = 4usize;
        let f32_page = PagePayload::F32(Matrix::from_fn(page_rows, cols, |r, c| {
            (r * cols + c) as f32 * 0.1
        }));
        let int8_page = demote_payload(&f32_page, KvCacheMode::Int8);
        let before = int8_page.allocated_bytes(page_rows);
        // Premise: at 4 columns the int4 rung's per-group scale snapshot
        // outweighs its code savings, so the next rung would *grow*.
        assert!(
            demote_payload(&int8_page, KvCacheMode::Int4).allocated_bytes(page_rows) >= before,
            "geometry no longer pathological; shrink the column count"
        );
        let arena = KvArena::new(ArenaConfig {
            page_rows,
            capacity_bytes: Some(before + 8),
            watermark: 0.5,
            deferred_demotion: true,
            ..ArenaConfig::default()
        });
        let id = arena.alloc(int8_page).expect("page fits under the cap");
        assert!(arena.over_watermark(), "the drain must have a byte deficit");
        arena.enqueue_demotion(
            DemoteKey {
                clock: arena.clock(),
                owner: 0,
                plane: 0,
                page_idx: 0,
            },
            id,
            PageTier::Int8,
        );
        let stats = drain_demotions(&arena, 0);
        assert_eq!(stats.demoted, 0, "a non-shrinking demotion must be skipped");
        assert_eq!(
            arena.allocated_bytes(),
            before,
            "allocation must not grow past the cap"
        );
        assert_eq!(arena.payload(id).tier(), PageTier::Int8);
        arena.release(id);
    }

    #[test]
    fn demote_and_retry_counts_retries_not_terminal_failures() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let dh = shape.head_dim();
        let planes = 2 * (shape.layers * shape.heads) as u64;
        let page_rows = 2usize;
        let prompt_len = 8usize;
        let full_f32 = planes * (prompt_len as u64) * (dh as u64) * 4;
        // Watermark 1.0 disables proactive demotion: the only way this
        // prompt fits under 3/4 of its f32 footprint is the append path's
        // demote-and-retry loop eating refusals at the cap.
        let arena = KvArena::new(ArenaConfig {
            page_rows,
            capacity_bytes: Some(full_f32 * 3 / 4),
            watermark: 1.0,
            ..ArenaConfig::default()
        });
        let mut s = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
        s.try_prefill(&tokens(prompt_len, shape.vocab, 11))
            .expect("demote-and-retry must fit the prompt under a 3/4-f32 cap");
        let stats = arena.stats();
        assert!(stats.demoted_int8 > 0, "the cap never forced a demotion");
        assert!(
            stats.alloc_retries > 0,
            "refusals at the cap must count as retries"
        );
        assert_eq!(
            stats.evict_failures, 0,
            "a prefill that ultimately succeeds must not count terminal evict failures"
        );
    }

    #[test]
    fn shared_capped_batch_matches_independent_rollouts_when_unpressured() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let prompts: Vec<Vec<usize>> = (0..3).map(|s| tokens(5 + s, shape.vocab, 20 + s)).collect();
        let steps = 6;

        // Independent path: private, unbounded arenas.
        let solo_sessions: Vec<_> = (0..3).map(|_| DecodeSession::new(&reference)).collect();
        let mut solo = BatchEngine::new(solo_sessions);
        let want = solo
            .generate_greedy(&prompts, steps)
            .expect("one prompt per session");

        // One shared, capped (but ample) arena routes through the
        // lockstep path, which must be byte-identical when the budget is
        // never contended.
        let arena = KvArena::new(ArenaConfig {
            capacity_bytes: Some(64 << 20),
            deferred_demotion: true,
            ..ArenaConfig::default()
        });
        let shared_sessions: Vec<_> = (0..3)
            .map(|_| DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena))
            .collect();
        let mut shared = BatchEngine::new(shared_sessions);
        let got = shared
            .generate_greedy(&prompts, steps)
            .expect("one prompt per session");
        assert_eq!(
            got, want,
            "lockstep decode diverged from independent rollouts"
        );
        assert_eq!(arena.stats().evict_failures, 0);
    }

    #[test]
    fn arena_floor_is_a_typed_error() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let arena = KvArena::new(ArenaConfig {
            page_rows: 4,
            capacity_bytes: Some(8),
            watermark: 1.0,
            ..ArenaConfig::default()
        });
        let mut s = DecodeSession::with_arena(&reference, KvCacheMode::Int4, &arena);
        let err = s
            .try_prefill(&tokens(4, shape.vocab, 2))
            .expect_err("an 8-byte arena cannot hold a page");
        assert!(err.to_string().contains("kv arena exhausted"), "{err}");
        assert!(arena.stats().evict_failures > 0);
    }

    #[test]
    fn step_surfaces_kv_exhaustion_as_typed_error() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let dh = shape.head_dim();
        let planes = 2 * (shape.layers * shape.heads) as u64;
        let mode = KvCacheMode::Int4;
        // Capacity admits exactly one full int4 page per plane (rows plus
        // the committed per-group scale snapshot). Int4 is the ladder
        // floor, so the decode append that needs a second page has nothing
        // to demote and must surface the typed error.
        let page_rows = 4usize;
        let cap =
            planes * (page_rows as u64 * mode.position_bytes(dh) + mode.num_groups() as u64 * 4);
        let arena = KvArena::new(ArenaConfig {
            page_rows,
            capacity_bytes: Some(cap),
            watermark: 1.0,
            ..ArenaConfig::default()
        });
        let mut s = DecodeSession::with_arena(&reference, mode, &arena);
        s.try_prefill(&tokens(page_rows, shape.vocab, 3))
            .expect("the prompt fits exactly");
        assert!(matches!(
            s.step(1 % shape.vocab),
            Err(StepError::KvExhausted(_))
        ));
    }

    #[test]
    fn step_without_prefill_is_typed_error() {
        let (_, model) = tiny();
        let reference = model.reference();
        let mut session = DecodeSession::new(&reference);
        assert_eq!(session.step(0), Err(StepError::NotPrefilled));
    }

    #[test]
    fn step_past_max_seq_is_sequence_full() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let mut session = DecodeSession::new(&reference);
        // Fill the whole context window via prefill, then one more step
        // must refuse: position max_seq has no positional embedding.
        session.prefill(&tokens(shape.max_seq, shape.vocab, 7));
        assert_eq!(
            session.step(1),
            Err(StepError::SequenceFull {
                max_seq: shape.max_seq
            })
        );
        // The cache is intact and still at max_seq positions.
        assert_eq!(session.len(), shape.max_seq);
    }

    #[test]
    fn step_rejects_out_of_vocab_token() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let mut session = DecodeSession::new(&reference);
        session.prefill(&tokens(3, shape.vocab, 8));
        assert_eq!(
            session.step(shape.vocab),
            Err(StepError::TokenOutOfVocab {
                token: shape.vocab,
                vocab: shape.vocab
            })
        );
    }

    #[test]
    #[should_panic(expected = "empty session")]
    fn prefill_rejects_reuse() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let mut session = DecodeSession::new(&reference);
        let t = tokens(4, shape.vocab, 6);
        session.prefill(&t);
        session.prefill(&t);
    }

    #[test]
    fn batch_engine_matches_serial_sessions() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let prompts: Vec<Vec<usize>> = (0..3).map(|s| tokens(6 + s, shape.vocab, s)).collect();
        let steps = 5;
        // Three quarters of the longest rollout's f32 footprint: its appends must
        // demote their own pages inline and retry to fit.
        let planes = 2 * (shape.layers * shape.heads) as u64;
        let rollout_f32 = planes * (8 + steps as u64) * shape.head_dim() as u64 * 4;
        let capped = ArenaConfig {
            page_rows: 2,
            capacity_bytes: Some(rollout_f32 * 3 / 4),
            ..ArenaConfig::default()
        };
        let shared = KvArena::new(ArenaConfig::default());
        let private_capped =
            || DecodeSession::with_arena(&reference, KvCacheMode::F32, &KvArena::new(capped));
        let shared_uncapped = || DecodeSession::with_arena(&reference, KvCacheMode::F32, &shared);
        let unbounded = || DecodeSession::new(&reference);
        check_batch_vs_serial("private unbounded arenas", &prompts, steps, &unbounded);
        check_batch_vs_serial(
            "one shared uncapped arena",
            &prompts,
            steps,
            &shared_uncapped,
        );
        let sessions = check_batch_vs_serial(
            "private capped arenas, inline demotion",
            &prompts,
            steps,
            &private_capped,
        );
        let retries: u64 = sessions
            .iter()
            .map(|s| s.arena().stats().alloc_retries)
            .sum();
        assert!(retries > 0, "the cap never forced demote-and-retry");
    }

    /// Asserts `generate_greedy` over sessions from `session` equals one
    /// serial rollout per prompt, and returns the batch's sessions.
    fn check_batch_vs_serial<'m>(
        layout: &str,
        prompts: &[Vec<usize>],
        steps: usize,
        session: &dyn Fn() -> DecodeSession<'m>,
    ) -> Vec<DecodeSession<'m>> {
        let serial: Vec<Vec<usize>> = prompts
            .iter()
            .map(|p| {
                let mut session = session();
                let logits = session.prefill(p);
                let mut next = argmax_row(&logits, logits.rows() - 1).expect("finite logits");
                let mut out = Vec::new();
                for _ in 0..steps {
                    out.push(next);
                    let logits = session.step(next).expect("in-window step");
                    next = argmax_row(&logits, 0).expect("finite logits");
                }
                out
            })
            .collect();

        let mut engine = BatchEngine::new(prompts.iter().map(|_| session()).collect());
        let batched = engine
            .generate_greedy(prompts, steps)
            .expect("one prompt per session");
        assert_eq!(batched, serial, "{layout}");
        let sessions = engine.into_sessions();
        for (s, p) in sessions.iter().zip(prompts) {
            assert_eq!(s.len(), p.len() + steps, "{layout}");
        }
        sessions
    }

    #[test]
    fn forked_batch_matches_unshared_rollouts() {
        // BatchEngine::forked + resume_greedy must reproduce the exact
        // transcripts of sessions that never shared a page.
        let (shape, model) = tiny();
        let reference = model.reference();
        let arena = KvArena::new(ArenaConfig {
            page_rows: 4,
            ..ArenaConfig::default()
        });
        let prompt = tokens(6, shape.vocab, 9);
        let seeds: Vec<usize> = (0..3).map(|s| (s * 13 + 1) % shape.vocab).collect();

        let mut serial = Vec::new();
        for &seed in &seeds {
            let mut session = DecodeSession::new(&reference);
            session.prefill(&prompt);
            let mut next = seed;
            let mut out = Vec::new();
            for _ in 0..4 {
                out.push(next);
                let logits = session.step(next).expect("in-window step");
                next = argmax_row(&logits, 0).expect("finite logits");
            }
            serial.push(out);
        }

        let mut template = DecodeSession::with_arena(&reference, KvCacheMode::F32, &arena);
        template.prefill(&prompt);
        let mut engine = BatchEngine::forked(&template, seeds.len());
        let shared = engine.resume_greedy(&seeds, 4).expect("one seed per fork");
        assert_eq!(shared, serial, "prefix sharing changed a transcript");
    }

    #[test]
    fn try_step_all_isolates_per_session_errors() {
        let (shape, model) = tiny();
        let reference = model.reference();
        // Session 0 is at the context window; session 1 has room.
        let full = tokens(shape.max_seq, shape.vocab, 7);
        let short = tokens(4, shape.vocab, 3);

        let mut serial = DecodeSession::new(&reference);
        serial.prefill(&short);
        let expected = serial.step(1).expect("in-window step");

        let mut s0 = DecodeSession::new(&reference);
        s0.prefill(&full);
        let mut s1 = DecodeSession::new(&reference);
        s1.prefill(&short);
        let mut engine = BatchEngine::new(vec![s0, s1]);
        let results = engine.try_step_all(&[1, 1]).expect("well-formed call");
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0],
            Err(StepError::SequenceFull {
                max_seq: shape.max_seq
            })
        );
        // The surviving session's logits are not discarded and match the
        // serial rollout bit-for-bit.
        let logits = results[1].as_ref().expect("session 1 survives");
        assert_eq!(logits.shape(), expected.shape());
        for c in 0..expected.cols() {
            assert_eq!(logits[(0, c)], expected[(0, c)]);
        }

        // The collapsed legacy form reports the lowest-indexed error.
        let mut s0 = DecodeSession::new(&reference);
        s0.prefill(&full);
        let mut s1 = DecodeSession::new(&reference);
        s1.prefill(&short);
        let mut engine = BatchEngine::new(vec![s0, s1]);
        assert_eq!(
            engine.step_all(&[1, 1]),
            Err(BatchError::Step(StepError::SequenceFull {
                max_seq: shape.max_seq
            }))
        );
    }

    #[test]
    fn batch_calls_report_length_mismatch_instead_of_panicking() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let mut engine = BatchEngine::new(vec![
            DecodeSession::new(&reference),
            DecodeSession::new(&reference),
        ]);
        let mismatch = BatchError::LengthMismatch {
            expected: 2,
            got: 1,
        };
        assert_eq!(
            engine
                .prefill_all(&[tokens(3, shape.vocab, 1)])
                .expect_err("mismatched prefill must fail"),
            mismatch
        );
        assert_eq!(engine.try_step_all(&[0]).err(), Some(mismatch));
        assert_eq!(engine.step_all(&[0]).err(), Some(mismatch));
        assert_eq!(
            engine
                .generate_greedy(&[tokens(3, shape.vocab, 1)], 2)
                .err(),
            Some(mismatch)
        );
        assert_eq!(engine.resume_greedy(&[0], 2).err(), Some(mismatch));
        assert!(mismatch.to_string().contains("expects 2 arguments"));
    }

    #[test]
    fn generate_greedy_truncates_at_context_window() {
        let (shape, model) = tiny();
        let reference = model.reference();
        // Session 0's prompt leaves room for only 4 cache appends; session
        // 1 has plenty. The over-long rollout truncates instead of
        // panicking inside the pool task, and the batch survives.
        let prompts = vec![
            tokens(shape.max_seq - 4, shape.vocab, 5),
            tokens(6, shape.vocab, 2),
        ];
        let sessions = prompts
            .iter()
            .map(|_| DecodeSession::new(&reference))
            .collect();
        let mut engine = BatchEngine::new(sessions);
        let before = metrics::DECODE_TRUNCATED.get();
        let out = engine
            .generate_greedy(&prompts, 10)
            .expect("one prompt per session");
        assert_eq!(metrics::DECODE_TRUNCATED.get(), before + 1);
        // 4 in-window extensions plus the final predicted-but-unappended
        // token; the healthy session decodes all 10.
        assert_eq!(out[0].len(), 5);
        assert_eq!(out[1].len(), 10);
        let sessions = engine.into_sessions();
        assert_eq!(sessions[0].len(), shape.max_seq);
        assert_eq!(sessions[1].len(), 16);
    }

    #[test]
    fn argmax_skips_non_finite_and_flags_hopeless_rows() {
        let m = Matrix::from_fn(1, 4, |_, c| match c {
            0 => f32::NAN,
            1 => 2.0,
            2 => f32::INFINITY,
            3 => 5.0,
            _ => unreachable!(),
        });
        // +inf is not a usable argmax (it cannot be ranked meaningfully
        // against other poisoned values); the best *finite* logit wins.
        assert_eq!(argmax_row(&m, 0), Some(3));

        let all_nan = Matrix::from_fn(1, 4, |_, _| f32::NAN);
        assert_eq!(argmax_row(&all_nan, 0), None);
        let all_neg_inf = Matrix::from_fn(1, 4, |_, _| f32::NEG_INFINITY);
        assert_eq!(argmax_row(&all_neg_inf, 0), None);

        // The greedy fallback is deterministic and position-dependent.
        let before = tender_metrics::faults::DECODE_ARGMAX_SANITIZED.get();
        assert_eq!(greedy_token(&all_nan, 0, 9, 4), 1);
        assert_eq!(greedy_token(&all_nan, 0, 10, 4), 2);
        assert_eq!(
            tender_metrics::faults::DECODE_ARGMAX_SANITIZED.get(),
            before + 2
        );
    }

    #[test]
    fn step_reports_measured_macs() {
        let (shape, model) = tiny();
        let reference = model.reference();
        let mut session = DecodeSession::new(&reference);
        session.prefill(&tokens(5, shape.vocab, 9));
        session.step(1).expect("in-window step");
        let d = shape.d_model;
        let f = shape.ffn_dim;
        let len = 6; // cache length after the append
        let per_layer =
            (3 * d * d + shape.heads * (shape.head_dim() * len) * 2 + d * d + d * f + f * d) as u64;
        assert_eq!(session.last_step_macs(), per_layer * shape.layers as u64);
    }

    #[test]
    fn kv_cache_mode_parses_cli_spellings() {
        assert_eq!(KvCacheMode::parse("f32"), Some(KvCacheMode::F32));
        assert_eq!(KvCacheMode::parse("FP32"), Some(KvCacheMode::F32));
        assert_eq!(KvCacheMode::parse("Int8"), Some(KvCacheMode::Int8));
        assert_eq!(KvCacheMode::parse("INT4"), Some(KvCacheMode::Int4));
        assert_eq!(KvCacheMode::parse("int2"), None);
        for mode in KvCacheMode::ALL {
            assert_eq!(KvCacheMode::parse(mode.label()), Some(mode));
        }
    }
}
