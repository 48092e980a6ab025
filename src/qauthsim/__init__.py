"""Executable laboratory for a relay-mediated quantum authentication protocol.

Exact small-register state-vector simulation, session state machines for
both readout modes, adversary models, closed-form security math, and a
seeded Monte Carlo harness that grades empirical rates against the
closed forms.
"""

from .adversary import (
    AttackConfig,
    AttackKind,
    BasisChoice,
    EveState,
    KnowledgeReport,
    LocationKnowledge,
    TapPath,
    eve_knowledge_report,
)
from .channel import (
    ChannelError,
    KeystreamCipher,
    Path,
    PhotonCountModel,
    PhotonSlot,
    QuantumStream,
    TamperedMessageError,
)
from .harness import (
    AggregateReport,
    ScenarioError,
    ScenarioSpec,
    TrialResult,
    emit_report,
    load_scenario,
    params_report,
    parse_scenario,
    run_scenario,
    verify_tables,
)
from .protocol import (
    BeliefRule,
    EventLog,
    ProtocolMode,
    SessionConfig,
    SessionOutcome,
    SessionPlan,
    SessionStatus,
    SwapRecord,
    TamperSpec,
    authenticate,
    derive_key_bit,
    make_token,
    plan_session,
    run_session,
)
from .qsim import (
    BellKind,
    BellLabel,
    BellPhase,
    MeasBasis,
    RandomSource,
    SourceKind,
    StateRegister,
    SwapOutcome,
    SwapTable,
    bell_compose,
    measure_bell,
    measure_in_basis,
    prepare_bell,
    prepare_ghz,
    prepare_polarized,
    swap_enumerate,
)
from .secparams import (
    evasion_prob,
    forgery_prob,
    improvement_limit,
    pns_approx_evasion,
    pns_exact_evasion,
    pns_effective_d,
    pns_required_d,
    ratio_d_over_k,
    required_d,
    required_k,
    subset_success_prob,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
