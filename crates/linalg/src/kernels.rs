//! Lane-structured f32 kernels behind runtime CPU-feature dispatch.
//!
//! Every reduction kernel in this module — [`dot`], [`dist_sq`], the fused
//! [`cosine`] — is written against one fixed numeric recipe:
//!
//! 1. the input is consumed in blocks of [`LANES`] = 8 elements, each lane
//!    owning its own accumulator chain fed by fused multiply-adds
//!    (`f32::mul_add` / `vfmadd231ps`, one rounding per update);
//! 2. the tail (`len % 8` elements) folds into lanes `0..len % 8` with the
//!    same fused update (a lane that receives no tail element keeps its
//!    block-loop value exactly, because `fma(0, 0, acc) == acc`);
//! 3. the eight lane accumulators collapse in the fixed tree
//!    `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` (`reduce8`).
//!
//! The element-wise [`axpy`] performs the same fused update per output
//! element in every implementation, so it is trivially bit-identical. The
//! GEMM micro-kernel ([`gemm_with`]) holds an `MR × NR` output tile in
//! registers across the whole inner dimension; each output element is one
//! fused chain over `p = 0..k` in order from +0.0 (`lanes = 1`), or the
//! [`dot`] recipe above (`lanes = 8`: chain `l` takes the steps
//! `p ≡ l (mod 8)`, then `reduce8`). Which register holds an element is
//! unobservable, so the tile shape is free per ISA. Because the recipe —
//! not the instruction set — defines the result, the portable scalar path
//! and every SIMD path (AVX2+FMA, AVX-512) return **bit-identical
//! f32 for every input length** (including the 1..=15 remainders that
//! straddle one or two vector registers). That is the determinism contract
//! the similarity cache and the smoke gate rely on: `WYM_KERNEL=scalar` and
//! `WYM_KERNEL=auto` runs of the full pipeline must emit identical scores.
//!
//! How each ISA keeps the recipe:
//!
//! * **AVX2+FMA** maps the eight lanes onto one `ymm` register
//!   (`vfmadd231ps`), tails run scalar `mul_add` into the stored lanes.
//! * **AVX-512** must *not* widen the f32 reductions to 16 lanes — that
//!   would change which elements share an accumulator chain and therefore
//!   the rounding — so [`dot`], [`cosine`] and [`dist_sq`] reuse the AVX2
//!   bodies verbatim (every AVX-512 CPU has AVX2). Only [`axpy`] and the
//!   GEMM tile, where each `zmm` lane is an independent output element, and
//!   the exact-integer int8 kernels widen to full `zmm` registers.
//!
//! Other architectures (aarch64 included) run the portable scalar bodies:
//! an ISA backend that no gate on the build hosts can compile or run does
//! not ship.
//!
//! Dispatch is resolved once per process ([`active`]) from CPU feature
//! detection plus the `WYM_KERNEL` environment variable
//! (`scalar|avx2|avx512|auto`; unset = `auto` picks the best
//! supported one, and a named ISA the host lacks falls back to `scalar`
//! with a warning — selection must never change results, so it is a
//! performance concern, not a correctness one). The pipeline records the
//! resolved choice as the `kernel.dispatch.<name>` obs counter.

use std::sync::OnceLock;

/// Lane width of the accumulator pattern (one AVX2 `ymm` register of f32).
pub const LANES: usize = 8;

/// A kernel implementation selectable at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelImpl {
    /// Portable 8-lane scalar path (`f32::mul_add` per update).
    Scalar,
    /// AVX2 + FMA path via `std::arch` intrinsics (x86_64 only).
    Avx2Fma,
    /// AVX-512 (F+BW) path: AVX2 bodies for the f32 reductions (the 8-lane
    /// recipe is fixed), `zmm`-wide element-wise f32 and int8 kernels
    /// (x86_64 only).
    Avx512,
}

/// Every implementation the dispatch layer knows about, in preference
/// order (best first). Hosts support a subset — see [`supported`].
pub const ALL_IMPLS: [KernelImpl; 3] =
    [KernelImpl::Avx512, KernelImpl::Avx2Fma, KernelImpl::Scalar];

impl KernelImpl {
    /// Stable short name, used for the `kernel.dispatch.*` obs counter and
    /// the `WYM_KERNEL` override values.
    pub fn name(self) -> &'static str {
        match self {
            KernelImpl::Scalar => "scalar",
            KernelImpl::Avx2Fma => "avx2_fma",
            KernelImpl::Avx512 => "avx512",
        }
    }
}

/// Whether this host can execute `imp`. `Scalar` is supported everywhere;
/// the SIMD paths require both the right target architecture and runtime
/// CPU feature detection.
pub fn supported(imp: KernelImpl) -> bool {
    match imp {
        KernelImpl::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx512 => {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
        }
        #[allow(unreachable_patterns)]
        _ => false,
    }
}

/// The implementations this host supports, best first. Drives the
/// bit-identity test matrix, the `components_bench` kernel sweep, and the
/// smoke gate's kernel-matrix loop (via `wym kernels`-style probes).
pub fn available() -> Vec<KernelImpl> {
    ALL_IMPLS.into_iter().filter(|&imp| supported(imp)).collect()
}

/// The best implementation this CPU supports, ignoring `WYM_KERNEL`.
pub fn detect_best() -> KernelImpl {
    ALL_IMPLS.into_iter().find(|&imp| supported(imp)).unwrap_or(KernelImpl::Scalar)
}

/// The implementation every dispatched kernel call routes to, resolved once
/// per process from `WYM_KERNEL`:
///
/// * `scalar` — force the portable path;
/// * `avx2` (alias `avx2_fma`), `avx512` — request that ISA, with
///   a once-per-process warning and a **clean scalar fallback** when the
///   host does not support it;
/// * unset / empty / `auto` — [`detect_best`];
/// * anything else — warn once and use auto dispatch.
///
/// Warnings rather than failures are deliberate: kernel selection must
/// never change results, so a typo or an absent ISA is a performance
/// concern, not a correctness one.
pub fn active() -> KernelImpl {
    static ACTIVE: OnceLock<KernelImpl> = OnceLock::new();
    let request = |imp: KernelImpl| {
        if supported(imp) {
            imp
        } else {
            eprintln!(
                "warning: WYM_KERNEL={} is not supported on this host; \
                 falling back to scalar",
                imp.name()
            );
            KernelImpl::Scalar
        }
    };
    *ACTIVE.get_or_init(|| match std::env::var("WYM_KERNEL").ok().as_deref() {
        Some("scalar") => KernelImpl::Scalar,
        Some("avx2" | "avx2_fma") => request(KernelImpl::Avx2Fma),
        Some("avx512") => request(KernelImpl::Avx512),
        None | Some("") | Some("auto") => detect_best(),
        Some(other) => {
            eprintln!("warning: unknown WYM_KERNEL value {other:?}; using auto dispatch");
            detect_best()
        }
    })
}

/// Short name of the active implementation
/// (`scalar` / `avx2_fma` / `avx512`).
pub fn active_name() -> &'static str {
    active().name()
}

/// The fixed lane-reduction tree shared by every implementation.
#[inline(always)]
fn reduce8(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

// --- dispatched entry points ----------------------------------------------

/// Dot product `a · b` under the active implementation.
///
/// # Panics
/// Panics in debug builds on length mismatch.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_with(active(), a, b)
}

/// `y += alpha * x` (fused per element) under the active implementation.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    axpy_with(active(), alpha, x, y);
}

/// Squared Euclidean distance under the active implementation.
#[inline]
pub fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    dist_sq_with(active(), a, b)
}

/// Fused cosine similarity: `a·b`, `a·a`, and `b·b` accumulate in one pass
/// over the inputs, then combine as `(ab / (sqrt(aa) * sqrt(bb)))` clamped
/// to `[-1, 1]`, returning 0.0 when either norm is ≤ `f32::EPSILON` (the
/// all-zero `[UNP]` embedding contract). Each of the three accumulations
/// follows the standard lane recipe, so `aa` here is bit-identical to
/// `dot(a, a)` computed on its own.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    cosine_with(active(), a, b)
}

/// Integer dot product of two int8 vectors under the active implementation.
///
/// Every product `a[i] * b[i]` is exact in i32 and integer addition is
/// associative, so — unlike the f32 kernels — any accumulation order gives
/// the same result and bit-identity across implementations is structural,
/// not engineered. The i32 accumulator is exact for `len ≤ 133_000`
/// (|dot| ≤ len · 127²), far beyond any embedding dimension.
///
/// # Panics
/// Panics in debug builds on length mismatch.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    dot_i8_with(active(), a, b)
}

/// Integer squared Euclidean distance of two int8 vectors under the active
/// implementation. Exact for `len ≤ 33_000` (sum ≤ len · 254²).
#[inline]
pub fn dist_sq_i8(a: &[i8], b: &[i8]) -> i32 {
    dist_sq_i8_with(active(), a, b)
}

/// One int8 query row against a contiguous row-major block: `out[j] =
/// dot_i8(a, rows[j*d..][..d])` with `d = a.len()`. This is the int8
/// SimMatrix fill's inner loop — batching moves the dispatch out of the
/// per-entry path and lets the SIMD bodies reuse the widened query row
/// across consecutive table rows. Exact integer arithmetic throughout, so
/// every implementation returns identical values (see [`dot_i8`]).
///
/// # Panics
/// Panics in debug builds when `rows.len() != a.len() * out.len()`.
#[inline]
pub fn dot_i8_batch(a: &[i8], rows: &[i8], out: &mut [i32]) {
    dot_i8_batch_with(active(), a, rows, out);
}

/// Fused int8 cosine: the exact integer dot scaled back to f32 by the two
/// per-vector quantization scales (`value ≈ q · scale`). Because the dot is
/// an exact integer and the two multiplies happen in one fixed order, the
/// result is bit-identical across implementations and thread counts — the
/// property the ANN blocking pass's determinism contract leans on.
#[inline]
pub fn cosine_i8(a: &[i8], b: &[i8], scale_a: f32, scale_b: f32) -> f32 {
    (dot_i8(a, b) as f32) * (scale_a * scale_b)
}

/// Largest absolute value in `v` (0.0 when empty) under the active
/// implementation — the absmax pass of symmetric int8 quantization.
///
/// `max` over finite f32 is exactly associative and commutative, so any
/// lane split gives the bit-identical result; like the int8 kernels,
/// cross-implementation identity is structural. `v` must hold finite
/// values (quantization inputs always are); NaN propagation order is
/// unspecified.
#[inline]
pub fn max_abs(v: &[f32]) -> f32 {
    max_abs_with(active(), v)
}

/// Symmetric int8 quantization of one row under the active implementation:
/// `out[i] = (src[i] * inv)` rounded to nearest-even, clamped to
/// `[-127, 127]`, narrowed to i8.
///
/// Each element is independent (no accumulation), so block width is
/// unobservable and every implementation is bit-identical — the scalar
/// path's `round_ties_even` is exactly the SIMD converts' round-to-nearest-
/// even mode. `src` must hold finite values; non-finite elements produce
/// implementation-defined codes.
///
/// # Panics
/// Panics in debug builds on length mismatch.
#[inline]
pub fn quantize_i8(src: &[f32], inv: f32, out: &mut [i8]) {
    quantize_i8_with(active(), src, inv, out);
}

// --- explicit-implementation entry points (tests, benches) ----------------

/// [`dot_i8`] under an explicitly chosen implementation.
#[inline]
pub fn dot_i8_with(imp: KernelImpl, a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    match imp {
        KernelImpl::Scalar => scalar::dot_i8(a, b),
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma => unsafe { avx2::dot_i8(a, b) },
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx512 => unsafe { avx512::dot_i8(a, b) },
        #[allow(unreachable_patterns)]
        _ => scalar::dot_i8(a, b),
    }
}

/// [`cosine_i8`] under an explicitly chosen implementation.
#[inline]
pub fn cosine_i8_with(imp: KernelImpl, a: &[i8], b: &[i8], scale_a: f32, scale_b: f32) -> f32 {
    (dot_i8_with(imp, a, b) as f32) * (scale_a * scale_b)
}

/// [`max_abs`] under an explicitly chosen implementation.
#[inline]
pub fn max_abs_with(imp: KernelImpl, v: &[f32]) -> f32 {
    match imp {
        KernelImpl::Scalar => scalar::max_abs(v),
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma => unsafe { avx2::max_abs(v) },
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx512 => unsafe { avx512::max_abs(v) },
        #[allow(unreachable_patterns)]
        _ => scalar::max_abs(v),
    }
}

/// [`quantize_i8`] under an explicitly chosen implementation.
#[inline]
pub fn quantize_i8_with(imp: KernelImpl, src: &[f32], inv: f32, out: &mut [i8]) {
    debug_assert_eq!(src.len(), out.len());
    match imp {
        KernelImpl::Scalar => scalar::quantize_i8(src, inv, out),
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma => unsafe { avx2::quantize_i8(src, inv, out) },
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx512 => unsafe { avx512::quantize_i8(src, inv, out) },
        #[allow(unreachable_patterns)]
        _ => scalar::quantize_i8(src, inv, out),
    }
}

/// [`dot_i8_batch`] under an explicitly chosen implementation.
#[inline]
pub fn dot_i8_batch_with(imp: KernelImpl, a: &[i8], rows: &[i8], out: &mut [i32]) {
    debug_assert_eq!(rows.len(), a.len() * out.len());
    match imp {
        KernelImpl::Scalar => scalar::dot_i8_batch(a, rows, out),
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma => unsafe { avx2::dot_i8_batch(a, rows, out) },
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx512 => unsafe { avx512::dot_i8_batch(a, rows, out) },
        #[allow(unreachable_patterns)]
        _ => scalar::dot_i8_batch(a, rows, out),
    }
}

/// [`dist_sq_i8`] under an explicitly chosen implementation.
#[inline]
pub fn dist_sq_i8_with(imp: KernelImpl, a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    match imp {
        KernelImpl::Scalar => scalar::dist_sq_i8(a, b),
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma => unsafe { avx2::dist_sq_i8(a, b) },
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx512 => unsafe { avx512::dist_sq_i8(a, b) },
        #[allow(unreachable_patterns)]
        _ => scalar::dist_sq_i8(a, b),
    }
}

/// [`dot`] under an explicitly chosen implementation.
#[inline]
pub fn dot_with(imp: KernelImpl, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    match imp {
        KernelImpl::Scalar => scalar::dot(a, b),
        // AVX-512 reuses the AVX2 reduction body: widening to 16 lanes
        // would change the accumulator chains and break bit-identity.
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma | KernelImpl::Avx512 => unsafe { avx2::dot(a, b) },
        #[allow(unreachable_patterns)]
        _ => scalar::dot(a, b),
    }
}

/// [`axpy`] under an explicitly chosen implementation.
#[inline]
pub fn axpy_with(imp: KernelImpl, alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    match imp {
        KernelImpl::Scalar => scalar::axpy(alpha, x, y),
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma => unsafe { avx2::axpy(alpha, x, y) },
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx512 => unsafe { avx512::axpy(alpha, x, y) },
        #[allow(unreachable_patterns)]
        _ => scalar::axpy(alpha, x, y),
    }
}

/// [`dist_sq`] under an explicitly chosen implementation.
#[inline]
pub fn dist_sq_with(imp: KernelImpl, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    match imp {
        KernelImpl::Scalar => scalar::dist_sq(a, b),
        // See `dot_with`: AVX-512 keeps the 8-lane AVX2 reduction body.
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma | KernelImpl::Avx512 => unsafe { avx2::dist_sq(a, b) },
        #[allow(unreachable_patterns)]
        _ => scalar::dist_sq(a, b),
    }
}

/// [`cosine`] under an explicitly chosen implementation.
#[inline]
pub fn cosine_with(imp: KernelImpl, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let [ab, aa, bb] = match imp {
        KernelImpl::Scalar => scalar::dot3(a, b),
        // See `dot_with`: AVX-512 keeps the 8-lane AVX2 reduction body.
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma | KernelImpl::Avx512 => unsafe { avx2::dot3(a, b) },
        #[allow(unreachable_patterns)]
        _ => scalar::dot3(a, b),
    };
    let (na, nb) = (aa.sqrt(), bb.sqrt());
    if na <= f32::EPSILON || nb <= f32::EPSILON {
        return 0.0;
    }
    (ab / (na * nb)).clamp(-1.0, 1.0)
}

/// Layout of one GEMM `c = A · B` for [`gemm_with`]: `A` is `m × k` with
/// element `(i, p)` at `a[i*a_rs + p*a_cs]`; `B` (`k × n`) and `c`
/// (`m × n`) are row-major.
#[derive(Debug, Clone, Copy)]
pub struct Gemm {
    /// Rows of `A` and `c`.
    pub m: usize,
    /// Columns of `B` and `c`.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Step in `a` between rows of `A`.
    pub a_rs: usize,
    /// Step in `a` between columns of `A`.
    pub a_cs: usize,
    /// Accumulator chains per element: 1 (one fused chain over `p = 0..k`
    /// in order from +0.0) or [`LANES`] (exactly [`dot`] of the `A` row
    /// with the `B` column: chain `l` takes the steps `p ≡ l (mod 8)` in
    /// order, then `reduce8`), which needs contiguous rows (`a_cs = 1`).
    pub lanes: usize,
}

/// One register tile of a [`Gemm`]: `mr × nr` elements, addressed from
/// the tile's corner with the GEMM's strides.
#[derive(Debug, Clone, Copy)]
struct Tile {
    g: Gemm,
    mr: usize,
    nr: usize,
}

/// Computes `c = A · B` on the register-blocked micro-kernel under an
/// explicitly chosen implementation; every implementation returns
/// bit-identical results. `NR`-wide column panels of `B` are the outer
/// loop, so a `k × NR` panel stays in L1 while every tile of `MR` rows of
/// `A` streams past it; leftover rows run one at a time.
///
/// # Panics
/// Panics when the host does not support `imp`, `lanes` is not 1 or
/// [`LANES`] (with `a_cs = 1`), or a buffer is too short for the layout.
pub fn gemm_with(imp: KernelImpl, g: Gemm, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(supported(imp), "{} is not supported on this host", imp.name());
    assert!(g.lanes == 1 || (g.lanes == LANES && g.a_cs == 1), "lanes must be 1, or 8 with a_cs 1");
    assert!(b.len() == g.k * g.n && c.len() == g.m * g.n, "gemm buffer sizes");
    if g.m == 0 || g.k == 0 {
        c.fill(0.0);
        return;
    }
    assert!((g.m - 1) * g.a_rs + (g.k - 1) * g.a_cs < a.len(), "gemm operand out of bounds");
    let shapes = match imp {
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx512 => avx512::SHAPES,
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma => avx2::SHAPES,
        _ => scalar::SHAPES,
    };
    let (full_mr, full_nr) = shapes[usize::from(g.lanes == LANES)];
    for j in (0..g.n).step_by(full_nr) {
        let mut i = 0;
        while i < g.m {
            let mr = if g.m - i >= full_mr { full_mr } else { 1 };
            let t = Tile { g, mr, nr: full_nr.min(g.n - j) };
            let (a, b, c) = (&a[i * g.a_rs..], &b[j..], &mut c[i * g.n + j..]);
            // SAFETY: the host supports `imp`, and the tile's rows
            // `i..i+mr`, columns `j..j+nr` and steps `0..k` stay inside the
            // buffer sizes asserted above.
            match imp {
                #[cfg(target_arch = "x86_64")]
                KernelImpl::Avx512 => unsafe {
                    avx512::gemm_tile(&t, a.as_ptr(), b.as_ptr(), c.as_mut_ptr())
                },
                #[cfg(target_arch = "x86_64")]
                KernelImpl::Avx2Fma => unsafe {
                    avx2::gemm_tile(&t, a.as_ptr(), b.as_ptr(), c.as_mut_ptr())
                },
                _ => scalar::gemm_tile(&t, a, b, c),
            }
            i += mr;
        }
    }
}

// --- portable 8-lane scalar implementation --------------------------------

/// The portable reference implementation: the exact lane recipe of the SIMD
/// path expressed with `f32::mul_add`, which glibc/LLVM lower to a hardware
/// FMA where one exists and to the correctly rounded soft-float `fmaf`
/// otherwise — in both cases one rounding per update, like `vfmadd`.
pub mod scalar {
    use super::{reduce8, LANES};

    /// 8-lane dot product.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        let blocks = a.len() / LANES * LANES;
        for (ca, cb) in a[..blocks].chunks_exact(LANES).zip(b[..blocks].chunks_exact(LANES)) {
            for l in 0..LANES {
                acc[l] = ca[l].mul_add(cb[l], acc[l]);
            }
        }
        for l in 0..a.len() - blocks {
            acc[l] = a[blocks + l].mul_add(b[blocks + l], acc[l]);
        }
        reduce8(acc)
    }

    /// Fused `a·b`, `a·a`, `b·b` in one pass; each follows the dot recipe.
    pub fn dot3(a: &[f32], b: &[f32]) -> [f32; 3] {
        let mut ab = [0.0f32; LANES];
        let mut aa = [0.0f32; LANES];
        let mut bb = [0.0f32; LANES];
        let blocks = a.len() / LANES * LANES;
        for (ca, cb) in a[..blocks].chunks_exact(LANES).zip(b[..blocks].chunks_exact(LANES)) {
            for l in 0..LANES {
                ab[l] = ca[l].mul_add(cb[l], ab[l]);
                aa[l] = ca[l].mul_add(ca[l], aa[l]);
                bb[l] = cb[l].mul_add(cb[l], bb[l]);
            }
        }
        for l in 0..a.len() - blocks {
            let (x, y) = (a[blocks + l], b[blocks + l]);
            ab[l] = x.mul_add(y, ab[l]);
            aa[l] = x.mul_add(x, aa[l]);
            bb[l] = y.mul_add(y, bb[l]);
        }
        [reduce8(ab), reduce8(aa), reduce8(bb)]
    }

    /// 8-lane squared distance: `d = a - b` rounds once, then `fma(d, d, acc)`.
    pub fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        let blocks = a.len() / LANES * LANES;
        for (ca, cb) in a[..blocks].chunks_exact(LANES).zip(b[..blocks].chunks_exact(LANES)) {
            for l in 0..LANES {
                let d = ca[l] - cb[l];
                acc[l] = d.mul_add(d, acc[l]);
            }
        }
        for l in 0..a.len() - blocks {
            let d = a[blocks + l] - b[blocks + l];
            acc[l] = d.mul_add(d, acc[l]);
        }
        reduce8(acc)
    }

    /// Element-wise fused `y[i] = fma(alpha, x[i], y[i])`.
    pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi = alpha.mul_add(xi, *yi);
        }
    }

    /// Integer int8 dot product (exact; see [`super::dot_i8`]).
    pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        let mut acc = 0i32;
        for (&x, &y) in a.iter().zip(b) {
            acc += x as i32 * y as i32;
        }
        acc
    }

    /// One query row against a contiguous row block (exact; see
    /// [`super::dot_i8_batch`]).
    pub fn dot_i8_batch(a: &[i8], rows: &[i8], out: &mut [i32]) {
        if a.is_empty() {
            out.fill(0);
            return;
        }
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(a.len())) {
            *o = dot_i8(a, row);
        }
    }

    /// Integer int8 squared distance (exact; see [`super::dist_sq_i8`]).
    pub fn dist_sq_i8(a: &[i8], b: &[i8]) -> i32 {
        let mut acc = 0i32;
        for (&x, &y) in a.iter().zip(b) {
            let d = x as i32 - y as i32;
            acc += d * d;
        }
        acc
    }

    /// Largest absolute value (exactly associative; see [`super::max_abs`]).
    pub fn max_abs(v: &[f32]) -> f32 {
        v.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Element-wise symmetric int8 quantization (see
    /// [`super::quantize_i8`]): `round_ties_even` is the same
    /// round-to-nearest-even the SIMD converts use.
    pub fn quantize_i8(src: &[f32], inv: f32, out: &mut [i8]) {
        for (o, &v) in out.iter_mut().zip(src) {
            *o = (v * inv).round_ties_even().clamp(-127.0, 127.0) as i8;
        }
    }

    /// GEMM tile rows with one chain per element.
    const MR: usize = 4;
    /// GEMM tile columns.
    const NR: usize = 16;
    /// GEMM tile `(rows, columns)` with one chain per element and with eight.
    pub(super) const SHAPES: [(usize, usize); 2] = [(MR, NR), (1, NR)];

    /// The portable GEMM tile (see [`super::gemm_with`]).
    pub(super) fn gemm_tile(t: &super::Tile, a: &[f32], b: &[f32], c: &mut [f32]) {
        let mut acc = [[[0.0f32; NR]; MR]; LANES];
        for p in 0..t.g.k {
            let brow = &b[p * t.g.n..][..t.nr];
            for (r, acc_r) in acc[p % t.g.lanes].iter_mut().enumerate().take(t.mr) {
                let av = a[r * t.g.a_rs + p * t.g.a_cs];
                for (x, &bv) in acc_r.iter_mut().zip(brow) {
                    *x = av.mul_add(bv, *x);
                }
            }
        }
        for r in 0..t.mr {
            for (j, out) in c[r * t.g.n..][..t.nr].iter_mut().enumerate() {
                let chains: [f32; LANES] = std::array::from_fn(|l| acc[l][r][j]);
                *out = if t.g.lanes == 1 { chains[0] } else { reduce8(chains) };
            }
        }
    }
}

// --- AVX2 + FMA implementation --------------------------------------------

/// AVX2+FMA implementation. Every function is `unsafe` because it requires
/// the `avx2`/`fma` target features; callers go through the dispatched
/// entry points, which only select this module after CPUID detection.
///
/// The block loop maps one lane accumulator to one `ymm` lane; the scalar
/// tail runs under the same `#[target_feature]` scope, so its
/// `f32::mul_add` compiles to the `vfmadd` instruction — the identical
/// operation the vector body performs per lane.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::{reduce8, LANES};
    use std::arch::x86_64::{
        __m256, _mm256_add_epi32, _mm256_add_ps, _mm256_andnot_ps, _mm256_castsi256_si128,
        _mm256_cmpgt_epi32, _mm256_cvtepi8_epi16, _mm256_cvtps_epi32, _mm256_extracti128_si256,
        _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_madd_epi16, _mm256_maskload_ps,
        _mm256_maskstore_ps, _mm256_max_epi32, _mm256_max_ps, _mm256_min_epi32, _mm256_mul_ps,
        _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_ps,
        _mm256_setzero_si256, _mm256_storeu_ps, _mm256_storeu_si256, _mm256_sub_epi16,
        _mm256_sub_ps, _mm_loadu_si128, _mm_packs_epi16, _mm_packs_epi32, _mm_storel_epi64,
    };

    /// 8-lane dot product.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (via
    /// [`super::detect_best`]) before calling.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let blocks = a.len() / LANES * LANES;
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < blocks {
            let va = _mm256_loadu_ps(a.as_ptr().add(i));
            let vb = _mm256_loadu_ps(b.as_ptr().add(i));
            acc = _mm256_fmadd_ps(va, vb, acc);
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for l in 0..a.len() - blocks {
            lanes[l] = a[blocks + l].mul_add(b[blocks + l], lanes[l]);
        }
        reduce8(lanes)
    }

    /// Fused `a·b`, `a·a`, `b·b` in one pass.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (via
    /// [`super::detect_best`]) before calling.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot3(a: &[f32], b: &[f32]) -> [f32; 3] {
        let blocks = a.len() / LANES * LANES;
        let mut ab = _mm256_setzero_ps();
        let mut aa = _mm256_setzero_ps();
        let mut bb = _mm256_setzero_ps();
        let mut i = 0;
        while i < blocks {
            let va = _mm256_loadu_ps(a.as_ptr().add(i));
            let vb = _mm256_loadu_ps(b.as_ptr().add(i));
            ab = _mm256_fmadd_ps(va, vb, ab);
            aa = _mm256_fmadd_ps(va, va, aa);
            bb = _mm256_fmadd_ps(vb, vb, bb);
            i += LANES;
        }
        let mut lab = [0.0f32; LANES];
        let mut laa = [0.0f32; LANES];
        let mut lbb = [0.0f32; LANES];
        _mm256_storeu_ps(lab.as_mut_ptr(), ab);
        _mm256_storeu_ps(laa.as_mut_ptr(), aa);
        _mm256_storeu_ps(lbb.as_mut_ptr(), bb);
        for l in 0..a.len() - blocks {
            let (x, y) = (a[blocks + l], b[blocks + l]);
            lab[l] = x.mul_add(y, lab[l]);
            laa[l] = x.mul_add(x, laa[l]);
            lbb[l] = y.mul_add(y, lbb[l]);
        }
        [reduce8(lab), reduce8(laa), reduce8(lbb)]
    }

    /// 8-lane squared distance.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (via
    /// [`super::detect_best`]) before calling.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
        let blocks = a.len() / LANES * LANES;
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < blocks {
            let va = _mm256_loadu_ps(a.as_ptr().add(i));
            let vb = _mm256_loadu_ps(b.as_ptr().add(i));
            let d = _mm256_sub_ps(va, vb);
            acc = _mm256_fmadd_ps(d, d, acc);
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for l in 0..a.len() - blocks {
            let d = a[blocks + l] - b[blocks + l];
            lanes[l] = d.mul_add(d, lanes[l]);
        }
        reduce8(lanes)
    }

    /// Element-wise fused `y[i] = fma(alpha, x[i], y[i])`.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (via
    /// [`super::detect_best`]) before calling.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let blocks = x.len() / LANES * LANES;
        let va = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i < blocks {
            let vx = _mm256_loadu_ps(x.as_ptr().add(i));
            let vy = _mm256_loadu_ps(y.as_ptr().add(i));
            _mm256_storeu_ps(y.as_mut_ptr().add(i), _mm256_fmadd_ps(va, vx, vy));
            i += LANES;
        }
        for l in blocks..x.len() {
            y[l] = alpha.mul_add(x[l], y[l]);
        }
    }

    /// Width of one int8 block: 16 lanes widened to i16 in one `ymm`.
    const I8_BLOCK: usize = 16;

    /// Integer int8 dot product: 16 int8 lanes sign-extend to i16
    /// (`vpmovsxbw`), multiply-accumulate pairwise into 8 i32 lanes
    /// (`vpmaddwd`), and the lanes sum at the end. All arithmetic is exact
    /// integer, so the result equals the scalar loop for any input.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (via
    /// [`super::detect_best`]) before calling.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        let blocks = a.len() / I8_BLOCK * I8_BLOCK;
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i < blocks {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i).cast()));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i).cast()));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
            i += I8_BLOCK;
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        let mut total: i32 = lanes.iter().sum();
        for l in blocks..a.len() {
            total += a[l] as i32 * b[l] as i32;
        }
        total
    }

    /// One query row against a contiguous row block: the per-row loop runs
    /// inside one `target_feature` scope, so [`dot_i8`] inlines and the
    /// dispatch cost is paid once per batch instead of once per entry.
    /// Exact integer (see [`super::dot_i8_batch`]).
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (via
    /// [`super::detect_best`]) before calling.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_i8_batch(a: &[i8], rows: &[i8], out: &mut [i32]) {
        if a.is_empty() {
            out.fill(0);
            return;
        }
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(a.len())) {
            *o = dot_i8(a, row);
        }
    }

    /// Integer int8 squared distance: differences in i16 (range ±254, no
    /// overflow), squared and pair-summed by `vpmaddwd`. Exact integer.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (via
    /// [`super::detect_best`]) before calling.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dist_sq_i8(a: &[i8], b: &[i8]) -> i32 {
        let blocks = a.len() / I8_BLOCK * I8_BLOCK;
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i < blocks {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i).cast()));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i).cast()));
            let d = _mm256_sub_epi16(va, vb);
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d, d));
            i += I8_BLOCK;
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        let mut total: i32 = lanes.iter().sum();
        for l in blocks..a.len() {
            let d = a[l] as i32 - b[l] as i32;
            total += d * d;
        }
        total
    }

    /// Largest absolute value: 8-lane `vmaxps` over sign-stripped lanes,
    /// folded with scalar `max` at the end. Exactly associative, so
    /// bit-identical to the scalar fold for finite inputs.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (via
    /// [`super::detect_best`]) before calling.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn max_abs(v: &[f32]) -> f32 {
        let blocks = v.len() / LANES * LANES;
        let sign = _mm256_set1_ps(-0.0);
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < blocks {
            let x = _mm256_andnot_ps(sign, _mm256_loadu_ps(v.as_ptr().add(i)));
            acc = _mm256_max_ps(acc, x);
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut m = lanes.iter().fold(0.0f32, |m, &x| m.max(x));
        for &x in &v[blocks..] {
            m = m.max(x.abs());
        }
        m
    }

    /// Element-wise symmetric int8 quantization, 8 elements per block:
    /// `vmulps` → `vcvtps2dq` (round-to-nearest-even, same as the scalar
    /// `round_ties_even`) → i32 clamp to ±127 → saturating packs to i8.
    /// Element-independent, so bit-identical to the scalar path for finite
    /// inputs at any block width.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (via
    /// [`super::detect_best`]) before calling.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn quantize_i8(src: &[f32], inv: f32, out: &mut [i8]) {
        let blocks = src.len() / LANES * LANES;
        let vinv = _mm256_set1_ps(inv);
        let vmin = _mm256_set1_epi32(-127);
        let vmax = _mm256_set1_epi32(127);
        let mut i = 0;
        while i < blocks {
            let t = _mm256_mul_ps(_mm256_loadu_ps(src.as_ptr().add(i)), vinv);
            let r = _mm256_cvtps_epi32(t);
            let c = _mm256_min_epi32(_mm256_max_epi32(r, vmin), vmax);
            let w = _mm_packs_epi32(
                _mm256_castsi256_si128(c),
                _mm256_extracti128_si256::<1>(c),
            );
            _mm_storel_epi64(out.as_mut_ptr().add(i).cast(), _mm_packs_epi16(w, w));
            i += LANES;
        }
        for l in blocks..src.len() {
            out[l] = (src[l] * inv).round_ties_even().clamp(-127.0, 127.0) as i8;
        }
    }

    /// GEMM tile `(rows, columns)` with one chain per element and with
    /// eight: 8 `ymm` sums either way.
    pub(super) const SHAPES: [(usize, usize); 2] = [(8, LANES), (1, LANES)];

    /// The GEMM tile (see [`super::gemm_with`]): `8 × 8` sums, or the eight
    /// chains of one row's 8 sums with `lanes = 8`, stay in `ymm` registers
    /// across the whole inner dimension; columns past `nr` are masked.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support, and every element
    /// the tile addresses must lie inside the buffers behind `a`, `b`, `c`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm_tile(t: &super::Tile, a: *const f32, b: *const f32, c: *mut f32) {
        match (t.g.lanes, t.mr) {
            (1, 1) => tile::<1, 1>(t, a, b, c),
            (1, _) => tile::<{ SHAPES[0].0 }, 1>(t, a, b, c),
            _ => tile::<1, LANES>(t, a, b, c),
        }
    }

    /// [`gemm_tile`] for `M` rows and `L` chains per element.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile<const M: usize, const L: usize>(
        t: &super::Tile,
        a: *const f32,
        b: *const f32,
        c: *mut f32,
    ) {
        let cols = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(t.nr as i32), cols);
        let mut acc = [[_mm256_setzero_ps(); M]; L];
        let rows: [usize; M] = std::array::from_fn(|r| r * t.g.a_rs);
        // A constant step lets the eight chains' loads use fixed offsets.
        let a_cs = if L == 1 { t.g.a_cs } else { 1 };
        let (mut ap, mut bp, mut p) = (a, b, 0);
        while p < t.g.k {
            // Step `p` feeds chain `p % L`.
            for acc_l in acc.iter_mut() {
                if p == t.g.k {
                    break;
                }
                let bv = _mm256_maskload_ps(bp, mask);
                for (x, &row) in acc_l.iter_mut().zip(&rows) {
                    *x = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(row)), bv, *x);
                }
                // Past the last step these may point past the buffers.
                (ap, bp, p) = (ap.wrapping_add(a_cs), bp.wrapping_add(t.g.n), p + 1);
            }
        }
        for (r, &first) in acc[0].iter().enumerate() {
            let sum = if L == 1 {
                first
            } else {
                let x: [__m256; LANES] = std::array::from_fn(|l| acc[l][r]);
                _mm256_add_ps(
                    _mm256_add_ps(_mm256_add_ps(x[0], x[1]), _mm256_add_ps(x[2], x[3])),
                    _mm256_add_ps(_mm256_add_ps(x[4], x[5]), _mm256_add_ps(x[6], x[7])),
                )
            };
            _mm256_maskstore_ps(c.add(r * t.g.n), mask, sum);
        }
    }
}

// --- AVX-512 implementation -----------------------------------------------

/// AVX-512 (F + BW) implementation of the kernels that can widen to `zmm`
/// registers **without** touching the 8-lane reduction recipe:
///
/// * `axpy` and the GEMM tile — each `zmm` lane holds its own output
///   element's fused-multiply-add chains, so block width is unobservable
///   and 16-wide blocks are bit-identical;
/// * the int8 kernels — exact integer arithmetic is associative, so any
///   accumulation order (here 32 int8 lanes widened to one `zmm` of i16,
///   `vpmaddwd` into 16 i32 lanes) gives the identical result.
///
/// The f32 *reductions* (`dot`, `dot3`, `dist_sq`) are deliberately absent:
/// widening them to 16 accumulator lanes would change which elements share
/// a chain and therefore the rounding. The dispatch layer routes them to
/// the [`avx2`] bodies instead (every AVX-512 host also has AVX2+FMA).
#[cfg(target_arch = "x86_64")]
pub mod avx512 {
    use std::arch::x86_64::{
        __m512, __m512i, __mmask16, _mm256_loadu_si256, _mm512_abs_ps, _mm512_add_epi32,
        _mm512_add_ps, _mm512_castsi512_si256, _mm512_cvtepi32_epi8, _mm512_cvtepi8_epi16,
        _mm512_cvtps_epi32, _mm512_extracti64x4_epi64, _mm512_fmadd_ps, _mm512_loadu_ps,
        _mm512_loadu_si512, _mm512_madd_epi16, _mm512_mask_storeu_ps, _mm512_maskz_loadu_epi8,
        _mm512_maskz_loadu_ps, _mm512_max_epi32, _mm512_max_ps, _mm512_min_epi32, _mm512_mul_ps,
        _mm512_reduce_add_epi32, _mm512_set1_epi32, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_setzero_si512, _mm512_storeu_ps, _mm512_storeu_si512, _mm512_sub_epi16,
        _mm_storeu_si128,
    };

    /// f32 elements per `zmm` register.
    const W: usize = 16;

    /// int8 elements widened into one `zmm` of i16 per block.
    const I8_BLOCK: usize = 32;

    /// Element-wise fused `y[i] = fma(alpha, x[i], y[i])`, 16 elements per
    /// block. Identical per-element operation as the scalar and AVX2 paths.
    ///
    /// # Safety
    /// The caller must have verified AVX-512 F support (via
    /// [`super::supported`]) before calling.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let blocks = x.len() / W * W;
        let va = _mm512_set1_ps(alpha);
        let mut i = 0;
        while i < blocks {
            let vx = _mm512_loadu_ps(x.as_ptr().add(i));
            let vy = _mm512_loadu_ps(y.as_ptr().add(i));
            _mm512_storeu_ps(y.as_mut_ptr().add(i), _mm512_fmadd_ps(va, vx, vy));
            i += W;
        }
        for l in blocks..x.len() {
            y[l] = alpha.mul_add(x[l], y[l]);
        }
    }

    /// GEMM tile `(rows, columns)` with one chain per element and with
    /// eight: 16 or 24 `zmm` sums.
    pub(super) const SHAPES: [(usize, usize); 2] = [(8, 2 * W), (3, W)];

    /// The GEMM tile (see [`super::gemm_with`]): the tile's sums — eight
    /// chains per element with `lanes = 8` — stay in `zmm` registers across
    /// the whole inner dimension; columns past `nr` are masked out of every
    /// load and store.
    ///
    /// # Safety
    /// The caller must have verified AVX-512 F support, and every element
    /// the tile addresses must lie inside the buffers behind `a`, `b`, `c`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gemm_tile(t: &super::Tile, a: *const f32, b: *const f32, c: *mut f32) {
        const L: usize = super::LANES;
        match (t.g.lanes, t.mr) {
            (1, 1) => tile::<1, 1, 2>(t, a, b, c),
            (1, _) => tile::<{ SHAPES[0].0 }, 1, 2>(t, a, b, c),
            (_, 1) => tile::<1, L, 1>(t, a, b, c),
            _ => tile::<{ SHAPES[1].0 }, L, 1>(t, a, b, c),
        }
    }

    /// [`gemm_tile`] for `M` rows, `L` chains per element and `V` `zmm`
    /// of columns.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn tile<const M: usize, const L: usize, const V: usize>(
        t: &super::Tile,
        a: *const f32,
        b: *const f32,
        c: *mut f32,
    ) {
        let mask: [__mmask16; V] =
            std::array::from_fn(|v| ((1u32 << t.nr.saturating_sub(v * W).min(W)) - 1) as __mmask16);
        let mut acc = [[[_mm512_setzero_ps(); V]; M]; L];
        let rows: [usize; M] = std::array::from_fn(|r| r * t.g.a_rs);
        // A constant step lets the eight chains' loads use fixed offsets.
        let a_cs = if L == 1 { t.g.a_cs } else { 1 };
        let (mut ap, mut bp, mut p) = (a, b, 0);
        while p < t.g.k {
            // Step `p` feeds chain `p % L`.
            for acc_l in acc.iter_mut() {
                if p == t.g.k {
                    break;
                }
                // A fully masked load touches no memory, so a masked-off
                // vector's address may lie past the end of `b`.
                let bv: [__m512; V] =
                    std::array::from_fn(|v| _mm512_maskz_loadu_ps(mask[v], bp.wrapping_add(v * W)));
                for (x, &row) in acc_l.iter_mut().zip(&rows) {
                    let av = _mm512_set1_ps(*ap.add(row));
                    for (x, &bv) in x.iter_mut().zip(&bv) {
                        *x = _mm512_fmadd_ps(av, bv, *x);
                    }
                }
                // Past the last step these may point past the buffers.
                (ap, bp, p) = (ap.wrapping_add(a_cs), bp.wrapping_add(t.g.n), p + 1);
            }
        }
        for (r, first) in acc[0].iter().enumerate() {
            for (v, &m) in mask.iter().enumerate() {
                let sum = if L == 1 {
                    first[v]
                } else {
                    let x: [__m512; 8] = std::array::from_fn(|l| acc[l][r][v]);
                    _mm512_add_ps(
                        _mm512_add_ps(_mm512_add_ps(x[0], x[1]), _mm512_add_ps(x[2], x[3])),
                        _mm512_add_ps(_mm512_add_ps(x[4], x[5]), _mm512_add_ps(x[6], x[7])),
                    )
                };
                _mm512_mask_storeu_ps(c.add(r * t.g.n).wrapping_add(v * W), m, sum);
            }
        }
    }

    /// Largest absolute value: 16-lane `vmaxps` over `vabsps`-stripped
    /// lanes. Exactly associative, bit-identical to the scalar fold for
    /// finite inputs.
    ///
    /// # Safety
    /// The caller must have verified AVX-512 F support (via
    /// [`super::supported`]) before calling.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn max_abs(v: &[f32]) -> f32 {
        let blocks = v.len() / W * W;
        let mut acc = _mm512_setzero_ps();
        let mut i = 0;
        while i < blocks {
            acc = _mm512_max_ps(acc, _mm512_abs_ps(_mm512_loadu_ps(v.as_ptr().add(i))));
            i += W;
        }
        let mut lanes = [0.0f32; W];
        _mm512_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut m = lanes.iter().fold(0.0f32, |m, &x| m.max(x));
        for &x in &v[blocks..] {
            m = m.max(x.abs());
        }
        m
    }

    /// Element-wise symmetric int8 quantization, 16 elements per block:
    /// `vmulps` → `vcvtps2dq` (round-to-nearest-even, same as the scalar
    /// `round_ties_even`) → i32 clamp to ±127 → `vpmovdb` narrowing
    /// (truncation is exact after the clamp). Element-independent, so
    /// bit-identical to the scalar path for finite inputs.
    ///
    /// # Safety
    /// The caller must have verified AVX-512 F support (via
    /// [`super::supported`]) before calling.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn quantize_i8(src: &[f32], inv: f32, out: &mut [i8]) {
        let blocks = src.len() / W * W;
        let vinv = _mm512_set1_ps(inv);
        let vmin = _mm512_set1_epi32(-127);
        let vmax = _mm512_set1_epi32(127);
        let mut i = 0;
        while i < blocks {
            let t = _mm512_mul_ps(_mm512_loadu_ps(src.as_ptr().add(i)), vinv);
            let r = _mm512_cvtps_epi32(t);
            let c = _mm512_min_epi32(_mm512_max_epi32(r, vmin), vmax);
            _mm_storeu_si128(out.as_mut_ptr().add(i).cast(), _mm512_cvtepi32_epi8(c));
            i += W;
        }
        for l in blocks..src.len() {
            out[l] = (src[l] * inv).round_ties_even().clamp(-127.0, 127.0) as i8;
        }
    }

    /// Integer int8 dot product: 32 int8 lanes sign-extend to one `zmm` of
    /// i16 (`vpmovsxbw`), multiply-accumulate pairwise into 16 i32 lanes
    /// (`vpmaddwd`), lanes sum at the end. Exact integer arithmetic, so the
    /// result equals the scalar loop for any input — this is the kernel the
    /// int8 SimMatrix pairing pass rides.
    ///
    /// # Safety
    /// The caller must have verified AVX-512 F+BW support (via
    /// [`super::supported`]) before calling.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        // Two independent accumulators over a 64-byte stride keep the
        // widen→madd→add chain pipelined; integer addition is associative,
        // so the split cannot change the result.
        let pairs = a.len() / (2 * I8_BLOCK) * (2 * I8_BLOCK);
        let mut acc0 = _mm512_setzero_si512();
        let mut acc1 = _mm512_setzero_si512();
        let mut i = 0;
        while i < pairs {
            let va0 = _mm512_cvtepi8_epi16(_mm256_loadu_si256(a.as_ptr().add(i).cast()));
            let vb0 = _mm512_cvtepi8_epi16(_mm256_loadu_si256(b.as_ptr().add(i).cast()));
            let va1 =
                _mm512_cvtepi8_epi16(_mm256_loadu_si256(a.as_ptr().add(i + I8_BLOCK).cast()));
            let vb1 =
                _mm512_cvtepi8_epi16(_mm256_loadu_si256(b.as_ptr().add(i + I8_BLOCK).cast()));
            acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(va0, vb0));
            acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(va1, vb1));
            i += 2 * I8_BLOCK;
        }
        let blocks = a.len() / I8_BLOCK * I8_BLOCK;
        if i < blocks {
            let va = _mm512_cvtepi8_epi16(_mm256_loadu_si256(a.as_ptr().add(i).cast()));
            let vb = _mm512_cvtepi8_epi16(_mm256_loadu_si256(b.as_ptr().add(i).cast()));
            acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(va, vb));
        }
        let mut lanes = [0i32; 16];
        _mm512_storeu_si512(lanes.as_mut_ptr().cast(), _mm512_add_epi32(acc0, acc1));
        let mut total: i32 = lanes.iter().sum();
        for l in blocks..a.len() {
            total += a[l] as i32 * b[l] as i32;
        }
        total
    }

    /// Sign-extends the two 32-byte halves of one 64-byte `zmm` of i8 into
    /// two `zmm`s of i16 (`vpmovsxbw`).
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn widen_i8x64(v: __m512i) -> (__m512i, __m512i) {
        (
            _mm512_cvtepi8_epi16(_mm512_castsi512_si256(v)),
            _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64::<1>(v)),
        )
    }

    /// One query row against a contiguous row block, two table rows per
    /// pass over full 64-byte chunks with a masked final chunk:
    ///
    /// * the widened query chunk is loaded once and madd-ed against both
    ///   rows, halving the query-side converts versus independent
    ///   [`dot_i8`] calls;
    /// * the tail (`d % 64` elements) runs through `vmovdqu8` with a zero
    ///   mask-fill instead of a scalar remainder loop — masked-out lanes
    ///   contribute an exact integer 0;
    /// * each accumulator collapses with `_mm512_reduce_add_epi32` rather
    ///   than a 16-lane scalar sum.
    ///
    /// All arithmetic is exact integer and addition is associative, so none
    /// of this changes any result (see [`super::dot_i8_batch`]).
    ///
    /// # Safety
    /// The caller must have verified AVX-512 F+BW support (via
    /// [`super::supported`]) before calling.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn dot_i8_batch(a: &[i8], rows: &[i8], out: &mut [i32]) {
        if a.is_empty() {
            out.fill(0);
            return;
        }
        let d = a.len();
        const CHUNK: usize = 64;
        let full = d / CHUNK * CHUNK;
        let tail = d - full;
        let tmask: u64 = if tail == 0 { 0 } else { u64::MAX >> (CHUNK - tail) };
        let mut j = 0;
        while j + 2 <= out.len() {
            let r0 = rows.as_ptr().add(j * d);
            let r1 = rows.as_ptr().add((j + 1) * d);
            let mut acc0 = _mm512_setzero_si512();
            let mut acc1 = _mm512_setzero_si512();
            let mut i = 0;
            while i < full {
                let (qa_lo, qa_hi) =
                    widen_i8x64(_mm512_loadu_si512(a.as_ptr().add(i).cast()));
                let (v0_lo, v0_hi) = widen_i8x64(_mm512_loadu_si512(r0.add(i).cast()));
                let (v1_lo, v1_hi) = widen_i8x64(_mm512_loadu_si512(r1.add(i).cast()));
                acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(qa_lo, v0_lo));
                acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(qa_hi, v0_hi));
                acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(qa_lo, v1_lo));
                acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(qa_hi, v1_hi));
                i += CHUNK;
            }
            if tail != 0 {
                let (qa_lo, qa_hi) =
                    widen_i8x64(_mm512_maskz_loadu_epi8(tmask, a.as_ptr().add(full)));
                let (v0_lo, v0_hi) = widen_i8x64(_mm512_maskz_loadu_epi8(tmask, r0.add(full)));
                let (v1_lo, v1_hi) = widen_i8x64(_mm512_maskz_loadu_epi8(tmask, r1.add(full)));
                acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(qa_lo, v0_lo));
                acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(qa_hi, v0_hi));
                acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(qa_lo, v1_lo));
                acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(qa_hi, v1_hi));
            }
            out[j] = _mm512_reduce_add_epi32(acc0);
            out[j + 1] = _mm512_reduce_add_epi32(acc1);
            j += 2;
        }
        if j < out.len() {
            out[j] = dot_i8(a, &rows[j * d..(j + 1) * d]);
        }
    }

    /// Integer int8 squared distance: differences in i16 (range ±254, no
    /// overflow), squared and pair-summed by `vpmaddwd`. Exact integer.
    ///
    /// # Safety
    /// The caller must have verified AVX-512 F+BW support (via
    /// [`super::supported`]) before calling.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn dist_sq_i8(a: &[i8], b: &[i8]) -> i32 {
        let blocks = a.len() / I8_BLOCK * I8_BLOCK;
        let mut acc = _mm512_setzero_si512();
        let mut i = 0;
        while i < blocks {
            let va = _mm512_cvtepi8_epi16(_mm256_loadu_si256(a.as_ptr().add(i).cast()));
            let vb = _mm512_cvtepi8_epi16(_mm256_loadu_si256(b.as_ptr().add(i).cast()));
            let d = _mm512_sub_epi16(va, vb);
            acc = _mm512_add_epi32(acc, _mm512_madd_epi16(d, d));
            i += I8_BLOCK;
        }
        let mut lanes = [0i32; 16];
        _mm512_storeu_si512(lanes.as_mut_ptr().cast(), acc);
        let mut total: i32 = lanes.iter().sum();
        for l in blocks..a.len() {
            let d = a[l] as i32 - b[l] as i32;
            total += d * d;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn vecs(len: usize, seed: u64, scale: f32) -> (Vec<f32>, Vec<f32>) {
        let mut rng = Rng64::new(seed);
        let a = (0..len).map(|_| rng.normal() as f32 * scale).collect();
        let b = (0..len).map(|_| rng.normal() as f32 * scale).collect();
        (a, b)
    }

    /// Every kernel, every *available* implementation (AVX-512 included
    /// where the host supports it), every length 0..=40
    /// (covering all 8-lane remainders), all three magnitudes: each SIMD
    /// path must equal the scalar path bit for bit.
    #[test]
    fn every_available_impl_bit_identical_to_scalar() {
        for imp in available() {
            for len in 0..=40usize {
                for (seed, scale) in [(7, 1.0f32), (8, 1e-6), (9, 1e6)] {
                    let (a, b) = vecs(len, seed ^ len as u64, scale);
                    assert_eq!(
                        dot_with(imp, &a, &b).to_bits(),
                        dot_with(KernelImpl::Scalar, &a, &b).to_bits(),
                        "dot {} len {len}",
                        imp.name()
                    );
                    assert_eq!(
                        dist_sq_with(imp, &a, &b).to_bits(),
                        dist_sq_with(KernelImpl::Scalar, &a, &b).to_bits(),
                        "dist_sq {} len {len}",
                        imp.name()
                    );
                    assert_eq!(
                        cosine_with(imp, &a, &b).to_bits(),
                        cosine_with(KernelImpl::Scalar, &a, &b).to_bits(),
                        "cosine {} len {len}",
                        imp.name()
                    );
                    let (x, y0) = vecs(len, seed.wrapping_add(100) ^ len as u64, scale);
                    let mut y1 = y0.clone();
                    let mut y2 = y0;
                    axpy_with(imp, 0.37, &x, &mut y1);
                    axpy_with(KernelImpl::Scalar, 0.37, &x, &mut y2);
                    assert_eq!(
                        y1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        y2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "axpy {} len {len}",
                        imp.name()
                    );
                }
            }
        }
    }

    #[test]
    fn dot3_components_match_standalone_dots() {
        for len in [0usize, 1, 7, 8, 9, 31, 300] {
            let (a, b) = vecs(len, 11 ^ len as u64, 1.0);
            let [ab, aa, bb] = scalar::dot3(&a, &b);
            assert_eq!(ab.to_bits(), scalar::dot(&a, &b).to_bits(), "ab len {len}");
            assert_eq!(aa.to_bits(), scalar::dot(&a, &a).to_bits(), "aa len {len}");
            assert_eq!(bb.to_bits(), scalar::dot(&b, &b).to_bits(), "bb len {len}");
        }
    }

    fn i8_vecs(len: usize, seed: u64) -> (Vec<i8>, Vec<i8>) {
        let mut rng = Rng64::new(seed);
        let gen = |rng: &mut Rng64| -> Vec<i8> {
            (0..len).map(|_| (rng.gen_range(255) as i32 - 127) as i8).collect()
        };
        let a = gen(&mut rng);
        let b = gen(&mut rng);
        (a, b)
    }

    /// The int8 kernels are exact integer arithmetic: every available path
    /// must equal the scalar path (and an i64 reference) on every length —
    /// 0..=70 covers remainders of the 16-wide AVX2 block and the 32-wide
    /// AVX-512 block — including the extreme
    /// ±127 corners.
    #[test]
    fn i8_kernels_exact_across_impls() {
        for imp in available() {
            for len in 0..=70usize {
                let (a, b) = i8_vecs(len, 31 ^ len as u64);
                let dot_ref: i64 = a.iter().zip(&b).map(|(&x, &y)| x as i64 * y as i64).sum();
                let dist_ref: i64 = a
                    .iter()
                    .zip(&b)
                    .map(|(&x, &y)| {
                        let d = x as i64 - y as i64;
                        d * d
                    })
                    .sum();
                assert_eq!(
                    dot_i8_with(imp, &a, &b) as i64,
                    dot_ref,
                    "dot_i8 {} len {len}",
                    imp.name()
                );
                assert_eq!(
                    dot_i8_with(imp, &a, &b),
                    dot_i8_with(KernelImpl::Scalar, &a, &b),
                    "dot_i8 dispatch {} len {len}",
                    imp.name()
                );
                assert_eq!(
                    dist_sq_i8_with(imp, &a, &b) as i64,
                    dist_ref,
                    "dist_sq_i8 {} len {len}",
                    imp.name()
                );
                assert_eq!(
                    dist_sq_i8_with(imp, &a, &b),
                    dist_sq_i8_with(KernelImpl::Scalar, &a, &b),
                    "dist_sq_i8 dispatch {} len {len}",
                    imp.name()
                );
            }
        }
        let extremes: Vec<i8> = vec![127, -127, 127, -127, 127, -127, 127, -127];
        let negated: Vec<i8> = extremes.iter().map(|&v| -v).collect();
        assert_eq!(dot_i8(&extremes, &extremes), 8 * 127 * 127);
        assert_eq!(dist_sq_i8(&extremes, &negated), 8 * 254 * 254);
    }

    #[test]
    fn cosine_i8_scales_the_exact_dot() {
        let (a, b) = i8_vecs(64, 5);
        let expected = (dot_i8(&a, &b) as f32) * (0.01f32 * 0.02f32);
        assert_eq!(cosine_i8(&a, &b, 0.01, 0.02).to_bits(), expected.to_bits());
        assert_eq!(dot_i8(&[], &[]), 0);
        assert_eq!(dist_sq_i8(&[], &[]), 0);
    }

    #[test]
    fn dot_agrees_with_f64_reference() {
        for len in [1usize, 8, 13, 64, 300] {
            let (a, b) = vecs(len, 21 ^ len as u64, 1.0);
            let reference: f64 =
                a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
            let got = dot(&a, &b) as f64;
            assert!(
                (got - reference).abs() <= 1e-4 * reference.abs().max(1.0),
                "len {len}: {got} vs {reference}"
            );
        }
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dist_sq(&[], &[]), 0.0);
        assert_eq!(cosine(&[], &[]), 0.0);
        let mut y: Vec<f32> = Vec::new();
        axpy(2.0, &[], &mut y);
        assert!(y.is_empty());
    }

    #[test]
    fn impl_names_are_stable() {
        assert_eq!(KernelImpl::Scalar.name(), "scalar");
        assert_eq!(KernelImpl::Avx2Fma.name(), "avx2_fma");
        assert_eq!(KernelImpl::Avx512.name(), "avx512");
        // active() must resolve to one of the known names.
        assert!(["scalar", "avx2_fma", "avx512"].contains(&active_name()));
    }

    /// The dispatch support probes are consistent: scalar is always
    /// supported, the availability list contains exactly the supported
    /// implementations (best first), and `detect_best` is its head.
    #[test]
    fn dispatch_probes_are_consistent() {
        assert!(supported(KernelImpl::Scalar));
        let avail = available();
        assert!(avail.contains(&KernelImpl::Scalar));
        for imp in ALL_IMPLS {
            assert_eq!(avail.contains(&imp), supported(imp), "{}", imp.name());
        }
        assert_eq!(detect_best(), avail[0]);
    }
}
