//! Quant-layer probe (traced runs only): one real matmul site, prepared
//! through `Scheme::prepare` on the experiment's calibration activations,
//! timed through `QuantMatmul::forward_at` against the f32 `Matrix::matmul`
//! of the same weight, at one row (a decode step) and at a prompt-length
//! block. The two arms alternate so drift hits both alike.

use std::hint::black_box;
use std::time::Instant;

use tender::model::Site;
use tender::tensor::Matrix;
use tender::{scheme_by_name, Experiment};

use crate::stats::median;
use crate::trace::Tracer;

/// Timed repetitions per arm at one row and at the row block.
const ONE_ROW_REPS: usize = 400;
const BLOCK_REPS: usize = 20;

pub struct Probe {
    pub site: String,
    pub block_rows: usize,
    pub tender_1row_us: f64,
    pub f32_1row_us: f64,
    pub tender_rows_us_per_row: f64,
    pub f32_rows_us_per_row: f64,
}

pub fn run(exp: &Experiment, scheme: &str, tr: &mut Tracer) -> Probe {
    let w = &exp.model().weights().layers[0].w_fc1;
    let acts = tr.call("probe.capture", 0, || {
        exp.reference()
            .capture_site_activations(exp.calibration_batches())
            .remove(&(0, Site::Fc1))
            .expect("layer 0 has an FFN up-projection")
    });
    let op = tr.call("probe.prepare", 0, || {
        scheme_by_name(scheme)
            .expect("registered scheme")
            .prepare(&acts, w)
    });
    let block = &acts[0];
    let row0 = block.rows() / 2;
    let one = block.slice_rows(row0, row0 + 1);

    let time_us = |f: &dyn Fn() -> Matrix| {
        let t = Instant::now();
        black_box(f());
        t.elapsed().as_nanos() as f64 / 1e3
    };
    let (mut t1, mut f1, mut tb, mut fb) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    tr.call("probe.forward_1row", 0, || {
        for _ in 0..ONE_ROW_REPS {
            t1.push(time_us(&|| op.forward_at(black_box(&one), row0)));
            f1.push(time_us(&|| black_box(&one).matmul(w).expect("shapes")));
        }
    });
    tr.call("probe.forward_rows", 0, || {
        for _ in 0..BLOCK_REPS {
            tb.push(time_us(&|| op.forward_at(black_box(block), 0)));
            fb.push(time_us(&|| black_box(block).matmul(w).expect("shapes")));
        }
    });
    let rows = block.rows() as f64;
    Probe {
        site: format!("layer 0 Fc1 {}x{}", w.rows(), w.cols()),
        block_rows: block.rows(),
        tender_1row_us: median(&t1),
        f32_1row_us: median(&f1),
        tender_rows_us_per_row: median(&tb) / rows,
        f32_rows_us_per_row: median(&fb) / rows,
    }
}
