//! The kernel table: which kernels this build has, which of them this CPU
//! runs, and the fastest of those.
//!
//! The table has one row per kernel, slowest first: `scalar` (every
//! target), `avx2` (x86 / x86_64, needs AVX2 + FMA), `avx512` (x86_64,
//! needs AVX-512F). Both SIMD rows are the same two functions of the
//! shared `pack` module — the pack and the macro loop — instantiated at
//! their own register tile.
//!
//! A kernel is a value, handed to whatever computes with it: a worker
//! program is built with the kernel it runs, so one fleet may mix widths.
//! Three ways to get one, none of which reads the environment:
//! 1. [`active`] — the fastest kernel the CPU supports: AVX-512 when
//!    `avx512f` is detected, else AVX2 when AVX2 + FMA are, else scalar.
//!    CPU-feature detection runs once per process, and every later call is
//!    one atomic load, so no hot path re-runs `is_x86_feature_detected!`;
//! 2. [`by_name`] — one kernel by name, refused (never silently replaced)
//!    when the CPU cannot run it or the name is unknown, so "ran the SIMD
//!    path" cannot be a lie on a machine without it;
//! 3. [`available`] — every kernel this CPU runs, for tests that exercise
//!    each one.

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
use super::pack::{self, Tile};
use super::packed::PackedB;
use std::sync::OnceLock;

/// One entry of the dispatch table.
///
/// Instances are only constructed by this module, after validating that
/// the CPU can execute them — every `&Kernel` in the program is safe to
/// call. Grab one with [`active`], [`by_name`], or [`available`], and hold
/// it across a loop to keep even the `OnceLock` load out of per-block code.
pub struct Kernel {
    name: &'static str,
    run: Run,
}

/// What a kernel runs.
enum Run {
    /// The scalar loop nest, straight on B (its "pack" is a verbatim
    /// row-major copy, `alpha` recorded and applied at consume time).
    Scalar,
    /// A register tile `T`: `pack` is `pack::pack_b_ld::<T>`, `gemm` is
    /// `T::gemm_packed`, the shared macro loop under `T`'s target
    /// features. Per-call updates pack into a thread-local and run the
    /// packed path.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Simd {
        pack: unsafe fn(*const f64, usize, usize, usize, f64, &mut pack::PackBuf),
        gemm: unsafe fn(*mut f64, usize, *const f64, usize, &[f64], usize, usize, usize),
    },
}

impl Kernel {
    /// Kernel name as [`by_name`] accepts it (`"scalar"`, `"avx2"`,
    /// `"avx512"`) and recorded in every [`PackedB`] it packs.
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
        match self.run {
            Run::Scalar => unsafe { super::scalar::gemm_acc_ld(c, ldc, a, lda, b, ldb, m, n, k, alpha) },
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Run::Simd { pack, gemm } => pack::with_pack_buf(|buf| unsafe {
                pack(b, ldb, k, n, alpha, buf);
                gemm(c, ldc, a, lda, buf.as_slice(), m, n, k)
            }),
        }
    }

    /// Pack `alpha · b` (`k × n`, row-major) into `dst`, reusing `dst`'s
    /// buffer and stamping its identity (this kernel, the shape, `alpha`).
    /// The packed layout is private to this kernel; see [`PackedB`] for
    /// the ownership / invalidation contract.
    pub fn pack_into(&self, dst: &mut PackedB, b: &[f64], k: usize, n: usize, alpha: f64) {
        assert_eq!(b.len(), k * n, "B must be k×n");
        match self.run {
            Run::Scalar => super::scalar::pack_b(b, dst.buf_mut()),
            // SAFETY: `b` holds `k` rows of `n` elements, `n` apart.
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Run::Simd { pack, .. } => unsafe { pack(b.as_ptr(), n, k, n, alpha, dst.buf_mut()) },
        }
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
        assert_eq!(c.len(), m * bp.n(), "C must be m×n");
        self.gemm_acc_packed_ld(c, bp.n(), a, bp, m);
    }

    /// [`Kernel::gemm_acc_packed`] on a C whose rows are `ldc ≥ n`
    /// elements apart — the trailing columns of a wider row-major matrix,
    /// updated in place. The same bits as on a contiguous copy of them:
    /// `ldc` only addresses the rows.
    ///
    /// # Panics
    /// As [`Kernel::gemm_acc_packed`], or if `c` is too short to hold `m`
    /// rows of `n` elements `ldc` apart.
    #[inline]
    pub fn gemm_acc_packed_ld(&self, c: &mut [f64], ldc: usize, a: &[f64], bp: &PackedB, m: usize) {
        assert_eq!(
            bp.packed_by(),
            Some(self.name),
            "PackedB was packed by {:?}, consumed through '{}'",
            bp.packed_by(),
            self.name
        );
        let (k, n) = (bp.k(), bp.n());
        assert!(ldc >= n && c.len() >= m.saturating_sub(1) * ldc + n * usize::from(m > 0), "C must hold m rows of n, ldc apart");
        assert_eq!(a.len(), m * k, "A must be m×k");
        let (c, a) = (c.as_mut_ptr(), a.as_ptr());
        // SAFETY: shapes checked; the pack identity proves `bp`'s buffer
        // holds this kernel's layout for k × n (for scalar: B itself, rows
        // `n` apart); CPU support established when this Kernel was handed
        // out.
        match self.run {
            Run::Scalar => unsafe {
                super::scalar::gemm_acc_ld(c, ldc, a, k, bp.buf().as_ptr(), n, m, n, k, bp.alpha())
            },
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Run::Simd { gemm, .. } => unsafe { gemm(c, ldc, a, k, bp.buf(), m, n, k) },
        }
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernel({})", self.name)
    }
}

/// One row of the dispatch table: a kernel, whether this CPU can run it,
/// and what it needs when it cannot.
struct Row {
    kernel: Kernel,
    supported: fn() -> bool,
    needs: &'static str,
}

/// The SIMD kernel of tile `T`: the shared pack and macro loop at `T`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
const fn simd<T: Tile>(name: &'static str) -> Kernel {
    Kernel { name, run: Run::Simd { pack: pack::pack_b_ld::<T>, gemm: T::gemm_packed } }
}

/// Every kernel compiled into this build, slowest first — the names
/// [`by_name`]'s refusals cite, whether or not this CPU can run them.
static TABLE: &[Row] = &[
    Row { kernel: Kernel { name: "scalar", run: Run::Scalar }, supported: || true, needs: "" },
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Row {
        kernel: simd::<super::avx2::Avx2>("avx2"),
        supported: || std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma"),
        needs: "AVX2+FMA",
    },
    #[cfg(target_arch = "x86_64")]
    Row {
        kernel: simd::<super::avx512::Avx512>("avx512"),
        supported: || std::is_x86_feature_detected!("avx512f"),
        needs: "AVX-512F",
    },
];

/// The fastest kernel this CPU supports — the last row of [`available`].
/// Resolved once, then a single atomic load per call.
#[inline]
pub fn active() -> &'static Kernel {
    static ACTIVE: OnceLock<&'static Kernel> = OnceLock::new();
    ACTIVE.get_or_init(|| available().pop().expect("scalar is always available"))
}

/// Look a kernel up by name, verifying the CPU can run it.
pub fn by_name(name: &str) -> Result<&'static Kernel, String> {
    let Some(row) = TABLE.iter().find(|row| row.kernel.name == name) else {
        let names: Vec<_> = TABLE.iter().map(|row| row.kernel.name).collect();
        return Err(format!("unknown kernel '{name}' (valid: {})", names.join(", ")));
    };
    if (row.supported)() {
        Ok(&row.kernel)
    } else {
        Err(format!("kernel '{name}' needs {}, which this CPU lacks", row.needs))
    }
}

/// Every kernel this CPU can run, slowest (scalar) first — for benches
/// and equivalence tests that want to exercise all of them explicitly.
pub fn available() -> Vec<&'static Kernel> {
    TABLE.iter().filter(|row| (row.supported)()).map(|row| &row.kernel).collect()
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
        for row in TABLE {
            let name = row.kernel.name;
            assert!(err.contains(name), "error must list '{name}': {err}");
        }
    }

    #[test]
    fn active_is_cached_and_consistent() {
        let k1 = active();
        let k2 = active();
        assert!(std::ptr::eq(k1, k2), "active() must return the cached entry");
        // The fastest of the runnable kernels, whatever the environment.
        assert!(std::ptr::eq(k1, *available().last().expect("scalar is always available")));
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
