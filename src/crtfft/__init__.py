"""crtfft: three-view CRT sparse FFT.

Recovers exactly k-sparse spectra from lazy time-domain access using three
coprime decimated views, peeling, two-part verification on the same views
as built (each sample is read once), and a certified dense-FFT fallback.
The view on modulus m reads the samples j*M/m + s and puts tone f in bin
f mod m.  The 2-of-3 CRT gate is the analyzable reference form; it lives in
`gating`, and the pipeline never runs it.

The abstract's claims, what checks each (`crtfft montecarlo --experiment`
unless a test is named) and what it reads today:

  claim                  checked by                    reads today
  Theta(k) survivors     gate-survivors on (997, 1009, planted pairs 10.0 = k; false 0.65 at
                         1013), k = 10, 100 trials,    --alpha 1 (alpha^3 k^3/m3 = 0.99),
                         --seed 1                      3324 at alpha = 15 (3332)
  peeling completes      peel-completion, 200 trials,  1.0 at k = 10 on (97, 101, 103) and at
                         --seed 5                      load 0.33 on (25, 27, 28)
  miss bound (2k/m)^t    verify-miss --k 10 --trials   one-shift test 0.0133 against 0.317
                         300 --seed 1 (CI)             (m_v = 63); three-shift test 0.0;
                                                       every run verifies on all three views
  O(sqrt(N) log k) time  test_synthesized_scaling:     exponent 0.31 (bound 0.4): views have
                         ops.total against N = 2^15 to about N^(1/3) bins, not sqrt(N)
                         2^24 at k = 16
  bounded worst case     test_corrupted_candidate_     a failed run adds 2M + fft_op_count(M)
                         forces_exact_fallback         + k ops: 4.07e6 at N = 2^14, k = 12,
                                                       against 7,677 on the fast path
  independent keyed      900 supports x 8 seeds on     no path, peel status or support moved
  hashes across views    (16, 17, 19) at k = 12, 16    with the seed; keyed and plain views
                         and (31, 32, 33) at k = 30;   gave the same paths and supports on
                         test_seed_changes_nothing     4 x 200 benchmark ops.  Under exact
                                                       decimation a key only relabels the
                                                       bins f mod m, so views are plain;
                                                       keyed bucketing needs sFFT's filters
"""

from .config import Config, load_config
from .errors import (
    CrtFftError,
    DenseRegimeError,
    DuplicateFrequencyError,
    NonFiniteError,
    NotCoprimeError,
    OracleCapExceededError,
    OutOfRangeError,
    ParseError,
    StrideMismatchError,
)
from .numtheory import (
    ModTriple,
    coprime_divisor_capacity,
    garner_digits,
    mod_inverse,
)
from .dft import dft_direct, dft_forward
from .signal import (
    SignalSource,
    SparseSpectrum,
    from_dense,
    load_spectrum,
    save_spectrum,
    synthesize,
)
from .planner import make_plan
from .views import ViewStack, build_view, build_view_from_spectrum, build_views
from .gating import GatedCandidate, GateStats, extract_residues, gate_pairs, gate_survivor_stats
from .peeling import (
    PeelOutcome,
    PeelState,
    PeelStatus,
    SingletonReading,
    detect_singletons,
    peel,
    run_peeling,
)
from .verification import (
    VerificationReport,
    ViewCheck,
    check_view,
    verify,
)
from .pipeline import (
    Certificate,
    RecoveryPath,
    RecoveryResult,
    build_certificate,
    dense_fallback,
    sparse_fft,
    sparse_fft_dense,
    verify_certificate,
)

__version__ = "0.1.0"
