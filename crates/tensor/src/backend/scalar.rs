//! `ScalarRef`: the obviously-correct serial reference backend.
//!
//! Every kernel is the shortest loop that implements the spec — no
//! blocking, no packing, no SIMD lanes, no fusion tricks. This is the
//! correctness oracle the property tests compare [`super::Blocked`]
//! against, and a bisection tool when a fast kernel is suspect.

use super::{AdamStepSpec, AttentionSpec, Backend, BinaryOp, MatmulSpec, UnaryOp};

#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarRef;

impl Backend for ScalarRef {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn unary(&self, op: UnaryOp, x: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = op.apply(v);
        }
    }

    fn binary(&self, op: BinaryOp, a: &[f32], b: &[f32], out: &mut [f32]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = op.apply(x, y);
        }
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
        // Plain per-element index arithmetic: unravel the flat output
        // index, dot with the operand strides.
        let nd = out_shape.len();
        let mut idx = vec![0usize; nd];
        for (flat, o) in out.iter_mut().enumerate() {
            crate::shape::unravel(flat, out_shape, &mut idx);
            let oa: usize = idx.iter().zip(sa).map(|(&i, &s)| i * s).sum();
            let ob: usize = idx.iter().zip(sb).map(|(&i, &s)| i * s).sum();
            *o = op.apply(a[oa], b[ob]);
        }
    }

    fn sum(&self, x: &[f32]) -> f64 {
        x.iter().map(|&v| v as f64).sum()
    }

    fn softmax_rows(&self, x: &[f32], out: &mut [f32], row: usize) {
        if row == 0 {
            return;
        }
        for (xr, or) in x.chunks(row).zip(out.chunks_mut(row)) {
            let m = xr.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for (o, &v) in or.iter_mut().zip(xr) {
                *o = (v - m).exp();
                denom += *o;
            }
            for o in or.iter_mut() {
                *o /= denom;
            }
        }
    }

    fn layernorm_rows(&self, x: &[f32], out: &mut [f32], row: usize, eps: f32) {
        if row == 0 {
            return;
        }
        for (xr, or) in x.chunks(row).zip(out.chunks_mut(row)) {
            let mean = xr.iter().sum::<f32>() / row as f32;
            let var = xr.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / row as f32;
            let inv = 1.0 / (var + eps).sqrt();
            for (o, &v) in or.iter_mut().zip(xr) {
                *o = (v - mean) * inv;
            }
        }
    }

    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], spec: &MatmulSpec) {
        let (m, k, n) = (spec.m, spec.k, spec.n);
        for (bi, &(ao, bo)) in spec.batch_offsets.iter().enumerate() {
            let a_mat = &a[ao * m * k..(ao + 1) * m * k];
            let b_mat = &b[bo * k * n..(bo + 1) * k * n];
            let o_mat = &mut out[bi * m * n..(bi + 1) * m * n];
            for i in 0..m {
                for j in 0..n {
                    // Textbook dot product, f32 accumulator.
                    let mut acc = spec.bias.map_or(0.0, |bias| bias[j]);
                    for kk in 0..k {
                        acc += a_mat[i * k + kk] * b_mat[kk * n + j];
                    }
                    o_mat[i * n + j] = acc;
                }
            }
        }
    }

    fn attention(&self, q: &[f32], k: &[f32], v: &[f32], out: &mut [f32], spec: &AttentionSpec) {
        let (n, d) = (spec.n, spec.d);
        let mut scores = vec![0.0f32; n];
        for bh in 0..spec.batch {
            let qm = &q[bh * n * d..(bh + 1) * n * d];
            let km = &k[bh * n * d..(bh + 1) * n * d];
            let vm = &v[bh * n * d..(bh + 1) * n * d];
            let om = &mut out[bh * n * d..(bh + 1) * n * d];
            for i in 0..n {
                let q_row = &qm[i * d..(i + 1) * d];
                let mask_row = spec.mask_row(bh, i);
                for (j, s) in scores.iter_mut().enumerate() {
                    let k_row = &km[j * d..(j + 1) * d];
                    let mut acc = 0.0f32;
                    for c in 0..d {
                        acc += q_row[c] * k_row[c];
                    }
                    *s = acc * spec.scale + mask_row.map_or(0.0, |mr| mr[j]);
                }
                // Softmax over the score row.
                let mx = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut denom = 0.0f32;
                for s in scores.iter_mut() {
                    *s = (*s - mx).exp();
                    denom += *s;
                }
                let o_row = &mut om[i * d..(i + 1) * d];
                o_row.fill(0.0);
                for (j, &p) in scores.iter().enumerate() {
                    let w = p / denom;
                    let v_row = &vm[j * d..(j + 1) * d];
                    for c in 0..d {
                        o_row[c] += w * v_row[c];
                    }
                }
            }
        }
    }

    fn unary_inplace(&self, op: UnaryOp, x: &mut [f32]) {
        for v in x.iter_mut() {
            *v = op.apply(*v);
        }
    }

    fn binary_inplace(&self, op: BinaryOp, acc: &mut [f32], b: &[f32]) {
        for (x, &y) in acc.iter_mut().zip(b) {
            *x = op.apply(*x, y);
        }
    }

    fn matmul_grad_a(&self, dc: &[f32], b: &[f32], da: &mut [f32], spec: &MatmulSpec) {
        let (m, k, n) = (spec.m, spec.k, spec.n);
        for (bi, &(_, bo)) in spec.batch_offsets.iter().enumerate() {
            let dc_mat = &dc[bi * m * n..(bi + 1) * m * n];
            let b_mat = &b[bo * k * n..(bo + 1) * k * n];
            let da_mat = &mut da[bi * m * k..(bi + 1) * m * k];
            for i in 0..m {
                for kk in 0..k {
                    let mut acc = 0.0f32;
                    for j in 0..n {
                        acc += dc_mat[i * n + j] * b_mat[kk * n + j];
                    }
                    da_mat[i * k + kk] += acc;
                }
            }
        }
    }

    fn matmul_grad_b(&self, a: &[f32], dc: &[f32], db: &mut [f32], spec: &MatmulSpec) {
        let (m, k, n) = (spec.m, spec.k, spec.n);
        for (bi, &(ao, _)) in spec.batch_offsets.iter().enumerate() {
            let a_mat = &a[ao * m * k..(ao + 1) * m * k];
            let dc_mat = &dc[bi * m * n..(bi + 1) * m * n];
            let db_mat = &mut db[bi * k * n..(bi + 1) * k * n];
            for kk in 0..k {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for i in 0..m {
                        acc += a_mat[i * k + kk] * dc_mat[i * n + j];
                    }
                    db_mat[kk * n + j] += acc;
                }
            }
        }
    }

    fn col_sums(&self, x: &[f32], out: &mut [f32], row: usize) {
        if row == 0 {
            return;
        }
        for r in x.chunks_exact(row) {
            for (o, &v) in out.iter_mut().zip(r) {
                *o += v;
            }
        }
    }

    fn row_sums(&self, x: &[f32], out: &mut [f32], row: usize) {
        if row == 0 {
            return;
        }
        for (o, r) in out.iter_mut().zip(x.chunks_exact(row)) {
            *o += r.iter().sum::<f32>();
        }
    }

    fn softmax_grad_rows(&self, y: &[f32], dy: &[f32], dx: &mut [f32], row: usize) {
        if row == 0 {
            return;
        }
        for ((yr, dyr), dxr) in y
            .chunks_exact(row)
            .zip(dy.chunks_exact(row))
            .zip(dx.chunks_exact_mut(row))
        {
            let s: f32 = yr.iter().zip(dyr).map(|(&a, &b)| a * b).sum();
            for ((o, &yv), &dv) in dxr.iter_mut().zip(yr).zip(dyr) {
                *o = (dv - s) * yv;
            }
        }
    }

    fn layernorm_grad_rows(&self, x: &[f32], dy: &[f32], dx: &mut [f32], row: usize, eps: f32) {
        if row == 0 {
            return;
        }
        let inv_n = 1.0 / row as f32;
        for ((xr, dyr), dxr) in x
            .chunks_exact(row)
            .zip(dy.chunks_exact(row))
            .zip(dx.chunks_exact_mut(row))
        {
            let mean = xr.iter().sum::<f32>() * inv_n;
            let var = xr.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() * inv_n;
            let inv = 1.0 / (var + eps).sqrt();
            let mut a = 0.0f32; // Σ dy
            let mut b = 0.0f32; // Σ dy·x̂
            for (&dv, &xv) in dyr.iter().zip(xr) {
                a += dv;
                b += dv * (xv - mean) * inv;
            }
            a *= inv_n;
            b *= inv_n;
            for ((o, &dv), &xv) in dxr.iter_mut().zip(dyr).zip(xr) {
                *o = inv * (dv - a - (xv - mean) * inv * b);
            }
        }
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
        let (n, d) = (spec.n, spec.d);
        let mat = n * d;
        if mat == 0 {
            return;
        }
        let mut probs = vec![0.0f32; n * n];
        let mut ds = vec![0.0f32; n];
        for bh in 0..spec.batch {
            let qm = &q[bh * mat..(bh + 1) * mat];
            let km = &k[bh * mat..(bh + 1) * mat];
            let vm = &v[bh * mat..(bh + 1) * mat];
            let dom = &dout[bh * mat..(bh + 1) * mat];
            // Recompute P = softmax(Q·Kᵀ·scale + mask) row by row.
            for i in 0..n {
                let q_row = &qm[i * d..(i + 1) * d];
                let mask_row = spec.mask_row(bh, i);
                let p_row = &mut probs[i * n..(i + 1) * n];
                for (j, s) in p_row.iter_mut().enumerate() {
                    let k_row = &km[j * d..(j + 1) * d];
                    let mut acc = 0.0f32;
                    for c in 0..d {
                        acc += q_row[c] * k_row[c];
                    }
                    *s = acc * spec.scale + mask_row.map_or(0.0, |mr| mr[j]);
                }
                let mx = p_row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut denom = 0.0f32;
                for s in p_row.iter_mut() {
                    *s = (*s - mx).exp();
                    denom += *s;
                }
                let inv = 1.0 / denom;
                for s in p_row.iter_mut() {
                    *s *= inv;
                }
            }
            let dqm = &mut dq[bh * mat..(bh + 1) * mat];
            let dkm = &mut dk[bh * mat..(bh + 1) * mat];
            let dvm = &mut dv[bh * mat..(bh + 1) * mat];
            for i in 0..n {
                let p_row = &probs[i * n..(i + 1) * n];
                let do_row = &dom[i * d..(i + 1) * d];
                // dV += P_i ⊗ dO_i ; dP_ij = dO_i · V_j.
                let mut srow = 0.0f32;
                for (j, dsj) in ds.iter_mut().enumerate() {
                    let v_row = &vm[j * d..(j + 1) * d];
                    let mut acc = 0.0f32;
                    for c in 0..d {
                        dvm[j * d + c] += p_row[j] * do_row[c];
                        acc += do_row[c] * v_row[c];
                    }
                    *dsj = acc;
                    srow += acc * p_row[j];
                }
                // dS_ij = (dP_ij − Σ_j dP⊙P) · P_ij · scale, then
                // dQ_i += dS_i · K ; dK_j += dS_ij · Q_i.
                let q_row = &qm[i * d..(i + 1) * d];
                for (j, dsj) in ds.iter().enumerate() {
                    let w = (dsj - srow) * p_row[j] * spec.scale;
                    let k_row = &km[j * d..(j + 1) * d];
                    for c in 0..d {
                        dqm[i * d + c] += w * k_row[c];
                        dkm[j * d + c] += w * q_row[c];
                    }
                }
            }
        }
    }

    fn qlinear_i8(
        &self,
        acts: &crate::quant::QuantActs,
        w: &crate::quant::QuantizedTensor,
        bias: Option<&[f32]>,
        out: &mut [f32],
    ) {
        crate::quant::qgemm(crate::simd::SimdLevel::Scalar, acts, w, bias, out);
    }

    fn adam_step(&self, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], s: &AdamStepSpec) {
        for i in 0..p.len() {
            let gi = g[i];
            m[i] = m[i] * s.beta1 + gi * (1.0 - s.beta1);
            v[i] = v[i] * s.beta2 + gi * gi * (1.0 - s.beta2);
            let m_hat = m[i] * (1.0 / s.bc1);
            let v_hat = v[i] * (1.0 / s.bc2);
            let update = s.lr * (m_hat / (v_hat.sqrt() + s.eps));
            // Decoupled decay reads the pre-update weight (AdamW).
            let decay = s.lr * s.weight_decay * p[i];
            p[i] = p[i] - update - decay;
        }
    }

    fn sgd_step(&self, p: &mut [f32], g: &[f32], vel: Option<&mut [f32]>, lr: f32, momentum: f32) {
        match vel {
            Some(vel) => {
                for i in 0..p.len() {
                    vel[i] = vel[i] * momentum + g[i];
                    p[i] -= lr * vel[i];
                }
            }
            None => {
                for (pv, &gv) in p.iter_mut().zip(g) {
                    *pv -= lr * gv;
                }
            }
        }
    }
}
