//! Kernel profiling hooks: a [`Profiled`] wrapper that forwards every
//! [`Backend`] method to an inner backend, attributing wall time per
//! kernel and precision into the `cobs` metrics registry
//! (`kernel.matmul.f32`, `kernel.qlinear.int8`, …) and emitting a span
//! into whatever `cobs` trace is active on the calling thread — so a
//! traced forecast request shows its backend kernels nested under the
//! replica compute span.
//!
//! Opt-in: the process default is wrapped only when `COASTAL_PROFILE=1`
//! (checked once per process), so the default serving path pays zero
//! per-op cost — not even a branch, because the un-wrapped
//! `Arc<dyn Backend>` is what gets installed.

use std::sync::Arc;
use std::time::Instant;

use super::{AdamStepSpec, AttentionSpec, Backend, BinaryOp, MatmulSpec, UnaryOp};

/// Wrap `b` in a [`Profiled`] when `COASTAL_PROFILE=1`, else return it
/// unchanged. Called once, when [`super::current`] builds the process
/// default.
pub(super) fn maybe_profile(b: Arc<dyn Backend>) -> Arc<dyn Backend> {
    let requested = matches!(
        std::env::var("COASTAL_PROFILE").as_deref(),
        Ok("1") | Ok("true") | Ok("on")
    );
    if requested {
        Arc::new(Profiled::new(b))
    } else {
        b
    }
}

/// Per-kernel timing wrapper around any backend.
#[derive(Debug)]
pub struct Profiled {
    inner: Arc<dyn Backend>,
}

impl Profiled {
    pub fn new(inner: Arc<dyn Backend>) -> Self {
        Self { inner }
    }
}

/// Time `f`, record into the named registry histogram (seconds), and
/// nest a kernel span into the thread's active trace, if any.
macro_rules! timed {
    ($name:literal, $f:expr) => {{
        let _span = cobs::trace::span($name);
        let start = Instant::now();
        let out = $f;
        cobs::histogram!($name).record_duration(start.elapsed());
        out
    }};
}

impl Backend for Profiled {
    fn name(&self) -> &'static str {
        // Transparent: selection tests and RunStamp see the real backend.
        self.inner.name()
    }

    fn unary(&self, op: UnaryOp, x: &[f32], out: &mut [f32]) {
        timed!("kernel.unary.f32", self.inner.unary(op, x, out))
    }

    fn unary_inplace(&self, op: UnaryOp, x: &mut [f32]) {
        timed!("kernel.unary.f32", self.inner.unary_inplace(op, x))
    }

    fn binary(&self, op: BinaryOp, a: &[f32], b: &[f32], out: &mut [f32]) {
        timed!("kernel.binary.f32", self.inner.binary(op, a, b, out))
    }

    fn binary_inplace(&self, op: BinaryOp, acc: &mut [f32], b: &[f32]) {
        timed!("kernel.binary.f32", self.inner.binary_inplace(op, acc, b))
    }

    fn binary_strided(
        &self,
        op: BinaryOp,
        a: &[f32],
        sa: &[usize],
        b: &[f32],
        sb: &[usize],
        out_shape: &[usize],
        out: &mut [f32],
    ) {
        timed!(
            "kernel.binary.f32",
            self.inner.binary_strided(op, a, sa, b, sb, out_shape, out)
        )
    }

    fn sum(&self, x: &[f32]) -> f64 {
        timed!("kernel.reduce.f32", self.inner.sum(x))
    }

    fn softmax_rows(&self, x: &[f32], out: &mut [f32], row: usize) {
        timed!("kernel.softmax.f32", self.inner.softmax_rows(x, out, row))
    }

    fn layernorm_rows(&self, x: &[f32], out: &mut [f32], row: usize, eps: f32) {
        timed!(
            "kernel.layernorm.f32",
            self.inner.layernorm_rows(x, out, row, eps)
        )
    }

    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], spec: &MatmulSpec) {
        timed!("kernel.matmul.f32", self.inner.matmul(a, b, out, spec))
    }

    fn attention(&self, q: &[f32], k: &[f32], v: &[f32], out: &mut [f32], spec: &AttentionSpec) {
        timed!(
            "kernel.attention.f32",
            self.inner.attention(q, k, v, out, spec)
        )
    }

    fn matmul_grad_a(&self, dc: &[f32], b: &[f32], da: &mut [f32], spec: &MatmulSpec) {
        timed!(
            "kernel.matmul_grad.f32",
            self.inner.matmul_grad_a(dc, b, da, spec)
        )
    }

    fn matmul_grad_b(&self, a: &[f32], dc: &[f32], db: &mut [f32], spec: &MatmulSpec) {
        timed!(
            "kernel.matmul_grad.f32",
            self.inner.matmul_grad_b(a, dc, db, spec)
        )
    }

    fn col_sums(&self, x: &[f32], out: &mut [f32], row: usize) {
        timed!("kernel.reduce.f32", self.inner.col_sums(x, out, row))
    }

    fn row_sums(&self, x: &[f32], out: &mut [f32], row: usize) {
        timed!("kernel.reduce.f32", self.inner.row_sums(x, out, row))
    }

    fn softmax_grad_rows(&self, y: &[f32], dy: &[f32], dx: &mut [f32], row: usize) {
        timed!(
            "kernel.softmax_grad.f32",
            self.inner.softmax_grad_rows(y, dy, dx, row)
        )
    }

    fn layernorm_grad_rows(&self, x: &[f32], dy: &[f32], dx: &mut [f32], row: usize, eps: f32) {
        timed!(
            "kernel.layernorm_grad.f32",
            self.inner.layernorm_grad_rows(x, dy, dx, row, eps)
        )
    }

    fn attention_grad(
        &self,
        q: &[f32],
        k: &[f32],
        v: &[f32],
        dout: &[f32],
        dq: &mut [f32],
        dk: &mut [f32],
        dv: &mut [f32],
        spec: &AttentionSpec,
    ) {
        timed!(
            "kernel.attention_grad.f32",
            self.inner.attention_grad(q, k, v, dout, dq, dk, dv, spec)
        )
    }

    fn qlinear_i8(
        &self,
        acts: &crate::quant::QuantActs,
        w: &crate::quant::QuantizedTensor,
        bias: Option<&[f32]>,
        out: &mut [f32],
    ) {
        timed!(
            "kernel.qlinear.int8",
            self.inner.qlinear_i8(acts, w, bias, out)
        )
    }

    fn adam_step(&self, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], s: &AdamStepSpec) {
        timed!("kernel.adam.f32", self.inner.adam_step(p, g, m, v, s))
    }

    fn sgd_step(&self, p: &mut [f32], g: &[f32], vel: Option<&mut [f32]>, lr: f32, momentum: f32) {
        timed!(
            "kernel.sgd.f32",
            self.inner.sgd_step(p, g, vel, lr, momentum)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ScalarRef;

    #[test]
    fn profiled_records_kernel_histograms_and_matches_inner() {
        let raw = ScalarRef;
        let prof = Profiled::new(Arc::new(ScalarRef));
        assert_eq!(prof.name(), "scalar");

        let a = vec![1.0f32, 2.0, 3.0, 4.0];
        let b = vec![5.0f32, 6.0, 7.0, 8.0];
        let spec = MatmulSpec {
            m: 2,
            k: 2,
            n: 2,
            batch_offsets: &[(0, 0)],
            bias: None,
        };
        let mut out_raw = vec![0.0f32; 4];
        let mut out_prof = vec![0.0f32; 4];
        raw.matmul(&a, &b, &mut out_raw, &spec);
        let before = cobs::metrics::global()
            .histogram("kernel.matmul.f32")
            .count();
        prof.matmul(&a, &b, &mut out_prof, &spec);
        assert_eq!(out_raw, out_prof);
        let after = cobs::metrics::global()
            .histogram("kernel.matmul.f32")
            .count();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn profiled_kernels_emit_spans_into_active_trace() {
        cobs::trace::set_enabled(true);
        let t = cobs::trace::start("test");
        let prof = Profiled::new(Arc::new(ScalarRef));
        {
            let _e = cobs::trace::enter(&t, t.root());
            let mut out = vec![0.0f32; 4];
            prof.softmax_rows(&[1.0, 2.0, 3.0, 4.0], &mut out, 2);
        }
        t.close();
        assert!(t.render().contains("kernel.softmax.f32"), "{}", t.render());
    }
}
