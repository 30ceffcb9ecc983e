"""crtfft: keyed three-view CRT sparse FFT.

Recovers exactly k-sparse spectra from lazy time-domain access using three
coprime decimated views, 2-of-3 CRT gating (as the analyzable reference
form), peeling-only recovery, two-part verification on independently hashed
views, and a certified dense-FFT fallback.

Peeling works on the three views' bins stacked in one buffer
(`PeelState.stack`); each round's singletons come out of
`detect_singletons` as one `SingletonReading` batch of parallel arrays.
"""

from .config import Config, load_config, replace
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
    egcd,
    garner2,
    garner3,
    garner3_parts,
    mod_inverse,
)
from .dft import dft_direct, dft_forward, dft_inverse
from .opcount import OpCounter
from .signal import (
    SignalSource,
    SparseSpectrum,
    from_dense,
    load_spectrum,
    save_spectrum,
    synthesize,
)
from .planner import (
    ModuliPlan,
    ViewParams,
    make_plan,
    validate_plan,
)
from .views import (
    ResidueSet,
    ViewSpectrum,
    build_view,
    build_view_from_spectrum,
    build_views,
    extract_residues,
)
from .gating import GatedCandidate, GateStats, gate_pairs, gate_survivor_stats
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
