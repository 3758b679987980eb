"""Detection criteria: verdicts with margins for entanglement and steering.

Universal criteria compare a summed quantifier value against the quantifier
evaluated on a majorization bound vector; a value strictly below the bound
certifies the correlation.  Fine-grained criteria compare prior-weighted hit
probabilities against an eigenvalue bound; a value strictly above certifies.
All verdicts require the violation to clear ``DETECTION_MARGIN``, and reports
carry a certified flag that is true only when every bound involved is
analytic or slack-inflated.  Probabilities are read from tables of the
quantum module's Born-rule contractions, one per measurement or setting pair.

The fine-grained steering evaluation plays the outcome-matching game: for a
column given by Bob's outcome string and Alice's announced string, the score
sums the joint probabilities of all translated matches.  Conditioning each
term on a single announced outcome instead (the face-value reading of the
per-column inequality) is not sound against adversarial local-hidden-state
models.  A local-hidden-state model picks Alice's announcement separately
for each setting, so a column can reach every one of Bob's outcome strings;
the sound bound is therefore one number, the largest fine-grained bound over
all of Bob's outcome strings, whatever the column or the configured string.
Each report's column names Bob's string and Alice's, ``a=..., a'=...``.
``steering_fine_grained`` is the only evaluation of this game; the paper's
two-qubit correlation-tensor form (its Eq. 12) runs it on the tensor's state.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .assemblage import Assemblage, conditional_stats, steer
from .bounds import (
    BoundVector,
    FineGrainedBound,
    _fine_grained_terms,
    _pair_events,
    _product_fingerprint,
    fine_grained_bound_map,
    fingerprint_povms,
    outcome_string_fingerprints,
)
from .errors import (
    BadParameter,
    DimensionMismatch,
    FingerprintMismatch,
    UnsoundQuantifier,
)
from .probvec import ProbVec, uniform
from .quantifier import Quantifier
from .quantum import DensityState, Observable, Povm, bloch_observable, product_observable_stats
from .quantum import state_from_correlation_tensor
from .quantum import _outcome_index, _steered, _traces

DETECTION_MARGIN = 1e-9
BOB_DIRECTIONS = ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
DETECTED = "Detected"
NOT_DETECTED = "NotDetected"


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of one criterion evaluation.

    ``margin`` is bound - lhs for universal criteria and lhs - bound for
    fine-grained ones, so a positive margin always points toward detection;
    the verdict additionally requires the margin to exceed
    ``DETECTION_MARGIN``.  A Detected verdict certifies the correlation;
    NotDetected certifies nothing.
    """

    criterion: str
    lhs_value: float
    bound_value: float
    margin: float
    verdict: str
    quantifier_name: str | None = None
    certified: bool = True
    column: str | None = None

    @property
    def detected(self) -> bool:
        return self.verdict == DETECTED


def _verdict(margin: float) -> str:
    return DETECTED if margin > DETECTION_MARGIN else NOT_DETECTED


def _require_safe(q: Quantifier) -> None:
    if not q.criterion_safe:
        raise UnsoundQuantifier(
            f"quantifier {q.name!r} is not admitted by the detection criteria"
        )


def entanglement_universal(state: DensityState, x: Sequence[Observable],
                           y: Sequence[Observable], q: Quantifier,
                           bound_x: BoundVector, bound_y: BoundVector) -> DetectionReport:
    """Universal entanglement criterion for paired product measurements.

    The quantifier summed over the joint product-observable statistics of a
    separable state can never drop below the larger of its values on the two
    local bound vectors; a strictly smaller sum certifies entanglement.
    """
    _require_safe(q)
    if len(x) != len(y):
        raise DimensionMismatch("both parties must use the same number of measurements")
    if bound_x.measurement_fingerprint != fingerprint_povms(x):
        raise FingerprintMismatch("bound_x was not generated from the x measurements")
    if bound_y.measurement_fingerprint != fingerprint_povms(y):
        raise FingerprintMismatch("bound_y was not generated from the y measurements")
    lhs = sum(q(product_observable_stats(state, xi, yi)) for xi, yi in zip(x, y))
    bound = max(q(bound_x.omega), q(bound_y.omega))
    margin = bound - lhs
    return DetectionReport(
        criterion="entanglement_universal",
        lhs_value=float(lhs),
        bound_value=float(bound),
        margin=float(margin),
        verdict=_verdict(margin),
        quantifier_name=q.name,
        certified=bound_x.certified and bound_y.certified,
    )


def steering_universal(asm: Assemblage, bob_meas: Sequence[Povm],
                       pairing: Mapping[int, int] | None, q: Quantifier,
                       bound: BoundVector) -> DetectionReport:
    """Universal steering criterion from Bob's conditional statistics.

    For every local-hidden-state assemblage the outcome-weighted quantifier
    of Bob's conditionals, summed over his measurements, dominates the
    quantifier of the bound vector for his measurement set.
    """
    _require_safe(q)
    if bound.measurement_fingerprint != fingerprint_povms(bob_meas):
        raise FingerprintMismatch("bound was not generated from Bob's measurements")
    if pairing is None:
        pairing = {i: i for i in range(len(bob_meas))}
    lhs = 0.0
    for i, povm in enumerate(bob_meas):
        setting = pairing[i]
        if setting not in asm.settings:
            raise BadParameter(f"pairing maps measurement {i} to unknown setting {setting}")
        cond = conditional_stats(asm, setting, povm)
        lhs += sum(w * q(dist) for w, dist in cond.entries.values())
    bound_value = q(bound.omega)
    margin = bound_value - lhs
    return DetectionReport(
        criterion="steering_universal",
        lhs_value=float(lhs),
        bound_value=float(bound_value),
        margin=float(margin),
        verdict=_verdict(margin),
        quantifier_name=q.name,
        certified=bound.certified,
    )


def entanglement_fine_grained(state: DensityState, meas_a: Sequence[Povm],
                              meas_b: Sequence[Povm], outcomes, priors: ProbVec,
                              bound: FineGrainedBound) -> DetectionReport:
    """Fine-grained entanglement criterion against a product-state bound.

    The lhs is the prior-weighted probability of the configured joint outcome
    events; exceeding the product-state maximum certifies entanglement.
    ``bound`` is keyed by these measurements, events and exact priors, so a
    bound built under other priors raises.
    """
    if state.dims is None:
        raise DimensionMismatch("state needs a bipartite factorization")
    da, db = state.dims
    if meas_a[0].dim != da or meas_b[0].dim != db:
        raise DimensionMismatch("measurement dimensions do not match the state factors")
    events = _pair_events(meas_a, meas_b, outcomes)
    if bound.measurement_fingerprint != _product_fingerprint(meas_a, meas_b, events, priors):
        raise FingerprintMismatch(
            "bound was not generated from these measurements, outcomes and priors"
        )
    steered = [_steered(povm.effects, state) for povm in meas_a]
    # joint(i, j)[k, l] = tr((E_ik (x) F_jl) rho), one table per setting pair
    joint = functools.cache(lambda i, j: _traces(meas_b[j].effects, steered[i]))
    lhs = 0.0
    for weight, i, j, k, l in _fine_grained_terms(meas_a, meas_b, events, priors):
        lhs += weight * float(joint(i, j)[k, l])
    margin = lhs - bound.value
    return DetectionReport(
        criterion="entanglement_fine_grained",
        lhs_value=float(lhs),
        bound_value=float(bound.value),
        margin=float(margin),
        verdict=_verdict(margin),
        certified=bound.certified,
    )


def steering_fine_grained(asm: Assemblage, bob_meas: Sequence[Povm],
                          outcomes: Sequence[str] | None, priors_bob: ProbVec,
                          bounds) -> list[DetectionReport]:
    """Fine-grained steering criteria, one report per Alice column and Bob string.

    Bob's measurement i is paired with Alice's setting i.  ``outcomes`` is
    one of Bob's outcome strings, or None for every one of them in product
    order.  For the column with Alice string a' and Bob string a, both named
    in the report's ``column``, the score is the prior-weighted joint
    probability that Bob's outcome matches Alice's announcement under the
    translation aligning a'_i with a_i.  Exceeding the fine-grained bound
    certifies steering.

    ``bounds`` maps every one of Bob's outcome strings (tuples of labels) to
    its :class:`FineGrainedBound`, as :func:`fine_grained_bound_map` builds
    it under ``priors_bob``; each is keyed by Bob's measurements, its string
    and the exact priors, so a bound built under other priors, however
    close, raises.  A local-hidden-state model reaches any string in any
    column, so every column is checked against the largest of these bounds.
    """
    m = len(bob_meas)
    settings = asm.settings
    if len(settings) != m:
        raise DimensionMismatch("one Alice setting per Bob measurement is required")
    if (outcomes is not None and len(outcomes) != m) or priors_bob.dim != m:
        raise DimensionMismatch("outcome string and priors must cover Bob's measurements")
    d = bob_meas[0].n_outcomes
    alice_labels = [asm.outcomes[setting] for setting in settings]
    for povm, labels in zip(bob_meas, alice_labels):
        if povm.dim != asm.bob_dim:
            raise DimensionMismatch("Bob measurement dimension differs from assemblage")
        if povm.n_outcomes != d:
            raise DimensionMismatch("matching game needs equal outcome counts per measurement")
        if len(labels) != d:
            raise DimensionMismatch(
                "matching game needs Alice outcome counts equal to Bob's"
            )
    strings = list(itertools.product(*(p.outcome_labels for p in bob_meas)))
    # the outcome indices and the labels of each requested Bob string, and
    # named[i], the indices of Bob's outcome i among them
    if outcomes is None:
        rows, requested, named = itertools.product(range(d), repeat=m), strings, [range(d)] * m
    else:
        row = [_outcome_index(povm, label) for povm, label in zip(bob_meas, outcomes)]
        requested = [tuple(povm.outcome_labels[b] for povm, b in zip(bob_meas, row))]
        rows, named = [row], [(b,) for b in row]

    if not isinstance(bounds, Mapping):
        raise BadParameter("bounds must map every Bob outcome string to its bound")
    bound_map = {tuple(k): v for k, v in bounds.items()}
    fingerprints = outcome_string_fingerprints(bob_meas, strings, priors_bob)
    used = []
    for labels in strings:
        if labels not in bound_map:
            raise BadParameter(f"no bound supplied for outcome string {labels}")
        if bound_map[labels].measurement_fingerprint != fingerprints[labels]:
            raise FingerprintMismatch(f"bound for {labels} was not generated from Bob's "
                                      "measurements, that string and these priors")
        used.append(bound_map[labels])
    bound_value = max(b.value for b in used)
    certified = all(b.certified for b in used)
    # traces[a, b] = tr(E_{i,b} sigma_{i,a}) is taken once per setting i, and
    # scores[i][b][a] is its matching score for Bob's b and Alice's announced a
    scores = []
    for povm, setting, bs in zip(bob_meas, settings, named):
        traces = _traces(povm.effects, asm.stacks[setting]).tolist()
        scores.append({b: [sum(traces[(a + t) % d][(b + t) % d] for t in range(d))
                           for a in range(d)] for b in bs})
    # each Alice column's outcome indices and the text naming its labels
    columns = list(zip(itertools.product(range(d), repeat=m),
                       map(str, itertools.product(*alice_labels))))
    weights = priors_bob.values.tolist()
    reports: list[DetectionReport] = []
    for row, bob_string in zip(rows, requested):
        prefix = f"a={bob_string}, a'="
        row_scores = [scores[i][b] for i, b in enumerate(row)]
        for alice_string, alice_text in columns:
            lhs = 0.0
            for w, score, a in zip(weights, row_scores, alice_string):
                lhs += w * score[a]
            margin = lhs - bound_value
            reports.append(DetectionReport(
                criterion="steering_fine_grained",
                lhs_value=float(lhs),
                bound_value=float(bound_value),
                margin=float(margin),
                verdict=_verdict(margin),
                certified=certified,
                column=prefix + alice_text,
            ))
    return reports


def steering_fine_grained_tensor(t: np.ndarray, alice_directions: Sequence,
                                 bob_directions: Sequence | None = None) -> list[DetectionReport]:
    """Qubit fine-grained steering of the state a correlation tensor encodes.

    The paper's Eq. 12: :func:`steering_fine_grained` over every one of
    Bob's outcome strings, with Bloch observables along the measurement
    directions (Bob's default to x and z) and uniform priors.  A tensor that
    encodes no state (a matrix that is not PSD or of trace one) raises.
    """
    state = state_from_correlation_tensor(t)
    bob_directions = BOB_DIRECTIONS if bob_directions is None else bob_directions
    bob = [bloch_observable(r) for r in bob_directions]
    priors = uniform(len(bob))
    asm = steer(state, [bloch_observable(s) for s in alice_directions])
    return steering_fine_grained(asm, bob, None, priors, fine_grained_bound_map(bob, priors))
