//! Golden serve transcripts: each config's transcript must hash to a
//! recorded digest, so any change to scheduling, pricing or the transcript
//! text shows up here — not only a difference between two runs of the
//! same build.
//!
//! Transcripts are byte-identical at any thread count and GEMM backend, so
//! the digests hold under every CI matrix entry. A deliberate behaviour
//! change must re-record them (the failure message prints the new value).

use tender_faults::{hash_bytes, FaultPlan, PlanGuard};
use tender_model::shape::ModelShape;
use tender_model::synthetic::SyntheticLlm;
use tender_serve::{kv_admit_bytes, kv_reserve_bytes, Scheduler, ServeConfig};

/// One golden row: a config, an optional fault plan, the transcript
/// fragments that prove the row covers what it claims, and the digest.
struct Golden {
    name: &'static str,
    cfg: fn(&ModelShape) -> ServeConfig,
    faults: Option<&'static str>,
    covers: &'static [&'static str],
    digest: u64,
}

const GOLDEN: &[Golden] = &[
    Golden {
        name: "queue rejection",
        cfg: |_| {
            let mut cfg = ServeConfig::new(10, 7);
            cfg.queue_cap = 2;
            cfg.max_batch = 1;
            cfg.max_arrival_gap = 0;
            cfg
        },
        faults: None,
        covers: &["reject r4: queue full (cap 2)"],
        digest: 0xffbb_87d9_2933_50c8,
    },
    Golden {
        name: "kv-budget rejection and truncation",
        cfg: |shape| {
            let mut cfg = ServeConfig::new(16, 64);
            cfg.deadline_steps = 500;
            cfg.page_rows = 4;
            cfg.kv_budget_bytes = 4 * kv_admit_bytes(shape, cfg.kv_mode, 4, 0, 12);
            cfg
        },
        faults: None,
        covers: &["reject r4: kv budget (need", "(truncated at kv budget)"],
        digest: 0x0060_7083_c38e_efab,
    },
    Golden {
        name: "window truncation",
        cfg: |_| {
            let mut cfg = ServeConfig::new(8, 64);
            cfg.deadline_steps = 500;
            cfg
        },
        faults: None,
        covers: &["r7 done: ", "(truncated at window)"],
        digest: 0x9326_ced7_44c5_ec8d,
    },
    Golden {
        name: "deadline expiry",
        cfg: |_| {
            let mut cfg = ServeConfig::new(10, 3);
            cfg.deadline_steps = 8;
            cfg.decode_len = (6, 30);
            cfg
        },
        faults: None,
        covers: &[
            "deadline exceeded after 0 tokens",
            "deadline exceeded after 3 tokens",
        ],
        digest: 0x3d9b_650b_3f7d_ab54,
    },
    Golden {
        name: "shared prefix on a capped arena",
        cfg: |shape| {
            let mut cfg = ServeConfig::new(12, 42);
            cfg.shared_prefix = 16;
            cfg.page_rows = 4;
            cfg.deadline_steps = 500;
            cfg.kv_budget_bytes = 8 * kv_reserve_bytes(shape, cfg.kv_mode, shape.max_seq);
            cfg.kv_arena_bytes = cfg.kv_budget_bytes / 8;
            cfg.kv_watermark = 0.25;
            cfg
        },
        faults: None,
        covers: &["shared prefix: 16 tokens", "kv drain: "],
        digest: 0xb7e9_ebe6_c5ad_07eb,
    },
    Golden {
        name: "drain reclaims into the budget",
        cfg: |shape| {
            let mut cfg = ServeConfig::new(12, 5);
            cfg.page_rows = 4;
            cfg.deadline_steps = 500;
            cfg.kv_budget_bytes = 6 * kv_admit_bytes(shape, cfg.kv_mode, 4, 0, 12);
            cfg.kv_arena_bytes = cfg.kv_budget_bytes / 2;
            cfg.kv_watermark = 0.25;
            cfg
        },
        faults: None,
        covers: &["kv drain: ", "4992 bytes reclaimed"],
        digest: 0xe054_df01_c0c4_8682,
    },
    Golden {
        name: "injected pool faults",
        cfg: |_| ServeConfig::new(12, 21),
        faults: Some("pool=0.2"),
        covers: &["failed: injected pool task fault", "done: "],
        digest: 0x98bb_6509_7aac_77a3,
    },
    Golden {
        name: "injected sched stalls",
        cfg: |_| {
            let mut cfg = ServeConfig::new(12, 33);
            cfg.deadline_steps = 24;
            cfg
        },
        faults: Some("sched=0.3"),
        covers: &["sched stall (injected)", "done: "],
        digest: 0x703a_36cb_4b60_4821,
    },
];

#[test]
fn serve_transcripts_match_recorded_digests() {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 11).reference();
    let mut mismatches = Vec::new();
    for g in GOLDEN {
        let _guard = g
            .faults
            .map(|spec| PlanGuard::install(FaultPlan::parse(5, spec).expect("fault plan")));
        let report = Scheduler::new(&model, (g.cfg)(&shape)).run();
        assert_eq!(report.unresolved, 0, "{}: unresolved requests", g.name);
        for fragment in g.covers {
            assert!(
                report.transcript.contains(fragment),
                "{}: transcript lacks {fragment:?}:\n{}",
                g.name,
                report.transcript
            );
        }
        let digest = hash_bytes(report.transcript.as_bytes());
        if digest != g.digest {
            mismatches.push(format!(
                "{}: recorded {:#018x}, got {digest:#018x}",
                g.name, g.digest
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "transcript digests changed:\n{}",
        mismatches.join("\n")
    );
}
