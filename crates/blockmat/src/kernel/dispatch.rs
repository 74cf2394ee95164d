//! Runtime kernel selection, cached in a `OnceLock`.
//!
//! CPU-feature detection runs exactly once per process — the first block
//! update resolves the table, every later call is one atomic load. No hot
//! path ever re-runs `is_x86_feature_detected!` per block update.
//!
//! Selection order:
//! 1. `MWP_KERNEL=scalar|avx2` forces a kernel (a forced kernel the CPU
//!    cannot run is a hard error — a silent fallback would make "tested
//!    the SIMD path" a lie on machines without it; an unknown name is a
//!    hard error listing the valid names);
//! 2. otherwise the fastest kernel the CPU supports wins (AVX2+FMA when
//!    detected, scalar everywhere else).

use super::packed::PackedB;
use std::sync::OnceLock;

/// Raw kernel entry: `C (m×n) += alpha · A (m×k) · B (k×n)`, row-major,
/// as `(c, ldc, a, lda, b, ldb, m, n, k, alpha)`. Unsafe because the AVX2
/// entry requires CPU support the dispatcher establishes and the operands
/// are raw sub-matrix views; see [`Kernel::gemm_acc_ld`].
type GemmAccLdRaw = unsafe fn(
    *mut f64,
    usize,
    *const f64,
    usize,
    *const f64,
    usize,
    usize,
    usize,
    usize,
    f64,
);

/// Raw pack entry: fill the buffer with this kernel's private packed
/// image of `alpha · B (k×n)`. Safe — packing is plain data movement.
type PackBRaw = fn(&[f64], usize, usize, f64, &mut Vec<f64>);

/// Raw prepacked entry: `C (m×n) += A (m×k) · bp` where `bp` is this
/// kernel's packed image (the trailing `alpha` is the recorded value,
/// for kernels that apply it at consume time rather than at pack time).
/// Unsafe for the CPU support the dispatcher establishes, plus the layout trust:
/// `bp` must have been produced by this kernel's pack entry for `k × n`.
type GemmAccPackedRaw = unsafe fn(&mut [f64], &[f64], &[f64], usize, usize, usize, f64);

/// One entry of the dispatch table.
///
/// Instances are only constructed by this module, after validating that
/// the CPU can execute them — every `&Kernel` in the program is safe to
/// call. Grab one with [`active`] (honours `MWP_KERNEL`), [`by_name`], or
/// [`available`], and hold it across a loop to keep even the `OnceLock`
/// load out of per-block code.
pub struct Kernel {
    name: &'static str,
    gemm_acc_ld: GemmAccLdRaw,
    pack_b: PackBRaw,
    gemm_acc_packed: GemmAccPackedRaw,
}

impl Kernel {
    /// Kernel name as accepted by `MWP_KERNEL` (`"scalar"`, `"avx2"`).
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `C (m×n) += alpha · A (m×k) · B (k×n)`, row-major contiguous
    /// (`ldc = n`, `lda = k`, `ldb = n`). `alpha` is exact for `±1.0`.
    ///
    /// Packs B internally on every call. Loops that stream several A
    /// operands against one B should [`Kernel::pack_into`] once and call
    /// [`Kernel::gemm_acc_packed`] instead.
    // The three-operand + three-extent + alpha signature is the BLAS gemm
    // contract; bundling it into a struct would only move the arguments.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn gemm_acc(
        &self,
        c: &mut [f64],
        a: &[f64],
        b: &[f64],
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
    ) {
        assert_eq!(c.len(), m * n, "C must be m×n");
        assert_eq!(a.len(), m * k, "A must be m×k");
        assert_eq!(b.len(), k * n, "B must be k×n");
        // SAFETY: three distinct slices of the contiguous shapes just
        // checked.
        unsafe { self.gemm_acc_ld(c.as_mut_ptr(), n, a.as_ptr(), k, b.as_ptr(), n, m, n, k, alpha) }
    }

    /// [`Kernel::gemm_acc`] on operands that are sub-matrices of larger
    /// row-major buffers — rows `ldc` / `lda` / `ldb` elements apart — read
    /// and updated in place. This is how the blocked LU kernels push their
    /// off-diagonal work through the gemm micro-kernel without copying
    /// panels out and back.
    ///
    /// # Safety
    /// Row `r` of C (`n` elements at `c + r·ldc`, `r < m`) must be valid
    /// for reads and writes, row `r` of A (`k` elements at `a + r·lda`,
    /// `r < m`) and of B (`n` elements at `b + r·ldb`, `r < k`) for reads,
    /// and no C row may overlap an A or B row. The three may otherwise
    /// live in one allocation.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) unsafe fn gemm_acc_ld(
        &self,
        c: *mut f64,
        ldc: usize,
        a: *const f64,
        lda: usize,
        b: *const f64,
        ldb: usize,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
    ) {
        debug_assert!(ldc >= n && lda >= k && ldb >= n, "rows must not overlap");
        // SAFETY: forwarded caller guarantees; CPU support was established
        // when this Kernel was handed out (see module docs).
        unsafe { (self.gemm_acc_ld)(c, ldc, a, lda, b, ldb, m, n, k, alpha) }
    }

    /// Pack `alpha · b` (`k × n`, row-major) into `dst`, reusing `dst`'s
    /// buffer and stamping its identity (this kernel, the shape, `alpha`).
    /// The packed layout is private to this kernel; see [`PackedB`] for
    /// the ownership / invalidation contract.
    pub fn pack_into(&self, dst: &mut PackedB, b: &[f64], k: usize, n: usize, alpha: f64) {
        assert_eq!(b.len(), k * n, "B must be k×n");
        (self.pack_b)(b, k, n, alpha, dst.buf_mut());
        dst.set_identity(self.name, k, n, alpha);
    }

    /// `C (m×n) += alpha · A (m×k) · B` where B (and its `alpha`) were
    /// packed once with [`Kernel::pack_into`] — the reuse path that makes
    /// streaming many A operands against one B cost a single pack.
    ///
    /// Bit-identical to [`Kernel::gemm_acc`] on the same operands: same
    /// microkernel, same per-element k-accumulation order.
    ///
    /// # Panics
    /// If `bp` was packed by a different kernel (the layouts are not
    /// interchangeable) or the shapes do not conform.
    #[inline]
    pub fn gemm_acc_packed(&self, c: &mut [f64], a: &[f64], bp: &PackedB, m: usize) {
        assert_eq!(
            bp.packed_by(),
            Some(self.name),
            "PackedB was packed by {:?}, consumed through '{}'",
            bp.packed_by(),
            self.name
        );
        let (k, n) = (bp.k(), bp.n());
        assert_eq!(c.len(), m * n, "C must be m×n");
        assert_eq!(a.len(), m * k, "A must be m×k");
        // SAFETY: shapes checked; the pack identity proves `bp`'s buffer
        // holds this kernel's layout for k × n; CPU support established
        // when this Kernel was handed out.
        unsafe { (self.gemm_acc_packed)(c, a, bp.buf(), m, n, k, bp.alpha()) }
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernel({})", self.name)
    }
}

static SCALAR: Kernel = Kernel {
    name: "scalar",
    gemm_acc_ld: super::scalar::gemm_acc_ld,
    pack_b: super::scalar::pack_b,
    gemm_acc_packed: super::scalar::gemm_acc_packed,
};

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
static AVX2: Kernel = Kernel {
    name: "avx2",
    gemm_acc_ld: super::avx2::gemm_acc_ld,
    pack_b: super::pack::pack_b,
    gemm_acc_packed: super::avx2::gemm_acc_packed,
};

/// Every kernel name compiled into this build (whether or not this CPU
/// can run it) — the list `MWP_KERNEL` errors cite.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
const KERNEL_NAMES: &[&str] = &["scalar", "avx2"];
#[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
const KERNEL_NAMES: &[&str] = &["scalar"];

static ACTIVE: OnceLock<&'static Kernel> = OnceLock::new();

/// The process-wide active kernel: `MWP_KERNEL` override if set, else the
/// fastest kernel this CPU supports. Resolved once, then a single atomic
/// load per call.
#[inline]
pub fn active() -> &'static Kernel {
    ACTIVE.get_or_init(|| match std::env::var("MWP_KERNEL") {
        // `MWP_KERNEL=` (empty) means "no override", like unset — this is
        // what a CI matrix leg with an empty value produces.
        Ok(name) if name.is_empty() => default_kernel(),
        Ok(name) => by_name(&name)
            .unwrap_or_else(|e| panic!("MWP_KERNEL: {e}")),
        Err(_) => default_kernel(),
    })
}

/// Look a kernel up by `MWP_KERNEL` name, verifying the CPU can run it.
pub fn by_name(name: &str) -> Result<&'static Kernel, String> {
    match name {
        "scalar" => Ok(&SCALAR),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        "avx2" if avx2_supported() => Ok(&AVX2),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        "avx2" => Err("kernel 'avx2' forced but this CPU lacks AVX2+FMA".into()),
        other => Err(format!(
            "unknown kernel '{other}' (valid: {})",
            KERNEL_NAMES.join(", ")
        )),
    }
}

/// Every kernel this CPU can run, scalar first — for benches and
/// equivalence tests that want to exercise all of them explicitly.
pub fn available() -> Vec<&'static Kernel> {
    let mut out = vec![&SCALAR];
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if avx2_supported() {
        out.push(&AVX2);
    }
    out
}

fn default_kernel() -> &'static Kernel {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if avx2_supported() {
        return &AVX2;
    }
    &SCALAR
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
fn avx2_supported() -> bool {
    std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert_eq!(by_name("scalar").unwrap().name(), "scalar");
        assert_eq!(available()[0].name(), "scalar");
    }

    #[test]
    fn unknown_kernel_error_lists_the_valid_names() {
        let err = by_name("sse9").unwrap_err();
        assert!(err.contains("unknown kernel"), "got: {err}");
        for name in KERNEL_NAMES {
            assert!(err.contains(name), "error must list '{name}': {err}");
        }
    }

    #[test]
    fn active_is_cached_and_consistent() {
        let k1 = active();
        let k2 = active();
        assert!(std::ptr::eq(k1, k2), "active() must return the cached entry");
        // Whatever was selected must be one of the runnable kernels.
        assert!(available().iter().any(|k| std::ptr::eq(*k, k1)));
    }

    #[test]
    fn shape_mismatch_panics() {
        let k = by_name("scalar").unwrap();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut c = vec![0.0; 4];
            k.gemm_acc(&mut c, &[1.0; 4], &[1.0; 3], 2, 2, 2, 1.0);
        }));
        assert!(res.is_err(), "B of wrong length must be rejected");
    }

    #[test]
    fn packed_shape_mismatch_panics() {
        let k = by_name("scalar").unwrap();
        let mut bp = crate::kernel::PackedB::new();
        k.pack_into(&mut bp, &[1.0; 6], 2, 3, 1.0);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut c = vec![0.0; 4]; // m·n would be 2·3 = 6
            k.gemm_acc_packed(&mut c, &[1.0; 4], &bp, 2);
        }));
        assert!(res.is_err(), "C of wrong length must be rejected");
    }
}
