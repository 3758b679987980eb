"""Detection criteria: verdicts with margins for entanglement and steering.

Universal criteria compare a summed quantifier value against the quantifier
evaluated on a majorization bound vector; a value strictly below the bound
certifies the correlation.  Fine-grained criteria compare prior-weighted hit
probabilities against an eigenvalue bound; a value strictly above certifies.
All verdicts require the violation to clear ``DETECTION_MARGIN``, and reports
carry a certified flag that is true only when every bound involved is
analytic or slack-inflated.

The fine-grained steering evaluation plays the outcome-matching game: for a
column given by Bob's outcome string and Alice's announced string, the score
sums the joint probabilities of all translated matches.  Conditioning each
term on a single announced outcome instead (the face-value reading of the
per-column inequality) is not sound against adversarial local-hidden-state
models.  A local-hidden-state model picks Alice's announcement separately
for each setting, so a column can reach every one of Bob's outcome strings;
the sound bound is therefore one number, the largest fine-grained bound over
all of Bob's outcome strings, whatever the column or the configured string.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .assemblage import Assemblage, conditional_stats
from .bounds import (
    BoundVector,
    FineGrainedBound,
    _pair_events,
    fine_grained_bound_map,
    fingerprint_povms,
    observable_fingerprint,
    setting_pairs,
)
from .errors import (
    BadParameter,
    DimensionMismatch,
    FingerprintMismatch,
    UnsoundQuantifier,
)
from .probvec import ProbVec
from .quantifier import Quantifier
from .quantum import (
    DensityState,
    Observable,
    Povm,
    bloch_observable,
    product_observable_stats,
)

DETECTION_MARGIN = 1e-9
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
    if bound_x.measurement_fingerprint != observable_fingerprint(x):
        raise FingerprintMismatch("bound_x was not generated from the x measurements")
    if bound_y.measurement_fingerprint != observable_fingerprint(y):
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
    """
    if state.dims is None:
        raise DimensionMismatch("state needs a bipartite factorization")
    da, db = state.dims
    if meas_a[0].dim != da or meas_b[0].dim != db:
        raise DimensionMismatch("measurement dimensions do not match the state factors")
    events = _pair_events(meas_a, meas_b, outcomes)
    expected = fingerprint_povms(list(meas_a) + list(meas_b), extra=repr(events))
    if bound.measurement_fingerprint != expected:
        raise FingerprintMismatch(
            "bound was not generated from these measurements, outcomes and priors"
        )
    pairs = setting_pairs(len(meas_a), len(meas_b))
    lhs = 0.0
    for weight, (i, j), event in zip(priors.values, pairs, events):
        if weight == 0.0:
            continue
        for a_label, b_label in event:
            joint = np.kron(meas_a[i].effect_for(a_label), meas_b[j].effect_for(b_label))
            lhs += weight * float(np.trace(joint @ state.matrix).real)
    margin = lhs - bound.value
    return DetectionReport(
        criterion="entanglement_fine_grained",
        lhs_value=float(lhs),
        bound_value=float(bound.value),
        margin=float(margin),
        verdict=_verdict(margin),
        certified=bound.certified,
    )


def _check_fine_grained_bound(bound: FineGrainedBound, labels: tuple[str, ...],
                              bob_meas: Sequence[Povm], priors_bob: ProbVec) -> None:
    expected = fingerprint_povms(bob_meas, extra="|".join(labels))
    if bound.measurement_fingerprint != expected:
        raise FingerprintMismatch(
            f"bound for {labels} was not generated from Bob's measurements and that string"
        )
    if bound.priors.dim != priors_bob.dim or not np.allclose(
        bound.priors.values, priors_bob.values, atol=1e-12
    ):
        raise FingerprintMismatch("bound was generated under different priors")


def steering_fine_grained(asm: Assemblage, bob_meas: Sequence[Povm],
                          outcomes: Sequence[str], priors_bob: ProbVec,
                          bounds) -> list[DetectionReport]:
    """Fine-grained steering criteria, one report per Alice outcome column.

    Bob's measurement i is paired with Alice's setting i.  For the column
    with Alice string a' (and the configured Bob string a), the score is the
    prior-weighted joint probability that Bob's outcome matches Alice's
    announcement under the translation aligning a'_i with a_i.  Exceeding
    the fine-grained bound certifies steering.

    ``bounds`` maps every one of Bob's outcome strings (tuples of labels) to
    its :class:`FineGrainedBound`, as :func:`fine_grained_bound_map` builds
    it.  A local-hidden-state model reaches any string in any column, so
    every column is checked against the largest of these bounds.
    """
    m = len(bob_meas)
    if len(asm.settings) != m:
        raise DimensionMismatch("one Alice setting per Bob measurement is required")
    if len(outcomes) != m or priors_bob.dim != m:
        raise DimensionMismatch("outcome string and priors must cover Bob's measurements")
    d = bob_meas[0].n_outcomes
    for i, povm in enumerate(bob_meas):
        if povm.dim != asm.bob_dim:
            raise DimensionMismatch("Bob measurement dimension differs from assemblage")
        if povm.n_outcomes != d:
            raise DimensionMismatch("matching game needs equal outcome counts per measurement")
        if len(asm.outcomes[asm.settings[i]]) != d:
            raise DimensionMismatch(
                "matching game needs Alice outcome counts equal to Bob's"
            )
    bob_idx = []
    for povm, label in zip(bob_meas, outcomes):
        if str(label) not in povm.outcome_labels:
            raise BadParameter(f"unknown outcome {label!r}; known labels {povm.outcome_labels}")
        bob_idx.append(povm.outcome_labels.index(str(label)))

    if not isinstance(bounds, Mapping):
        raise BadParameter("bounds must map every Bob outcome string to its bound")
    bound_map = {tuple(k): v for k, v in bounds.items()}
    used = []
    for labels in itertools.product(*(p.outcome_labels for p in bob_meas)):
        if labels not in bound_map:
            raise BadParameter(f"no bound supplied for outcome string {labels}")
        _check_fine_grained_bound(bound_map[labels], labels, bob_meas, priors_bob)
        used.append(bound_map[labels])
    bound_value = max(b.value for b in used)
    certified = all(b.certified for b in used)
    reports: list[DetectionReport] = []
    alice_label_sets = [asm.outcomes[asm.settings[i]] for i in range(m)]
    for alice_string in itertools.product(*(range(d) for _ in range(m))):
        lhs = 0.0
        for i in range(m):
            setting = asm.settings[i]
            labels = alice_label_sets[i]
            effects = bob_meas[i].effects
            score = 0.0
            for t in range(d):
                alpha = labels[(alice_string[i] + t) % d]
                beta = effects[(bob_idx[i] + t) % d]
                score += float(np.trace(beta @ asm.elements[(setting, alpha)]).real)
            lhs += priors_bob.values[i] * score
        margin = lhs - bound_value
        column_labels = tuple(alice_label_sets[i][alice_string[i]] for i in range(m))
        reports.append(
            DetectionReport(
                criterion="steering_fine_grained",
                lhs_value=float(lhs),
                bound_value=float(bound_value),
                margin=float(margin),
                verdict=_verdict(margin),
                certified=certified,
                column=f"a'={column_labels}",
            )
        )
    return reports


def steering_fine_grained_tensor(t: np.ndarray, alice_directions: Sequence,
                                 bob_directions: Sequence | None = None,
                                 priors: ProbVec | None = None) -> list[DetectionReport]:
    """Qubit fine-grained steering evaluated directly from a correlation tensor.

    Enumerates every sign combination of Alice and Bob outcome strings for
    the configured measurement directions (Bob defaults to x and z), scoring
    each column as the prior-weighted matched-outcome probability obtained
    from the spatial block of the tensor, against the largest fine-grained
    bound over all of Bob's outcome strings.  Reproduces the state-path
    evaluation without reconstructing the state.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (4, 4):
        raise DimensionMismatch("correlation tensor must be 4 x 4")
    if abs(t[0, 0] - 1.0) > 1e-8:
        raise BadParameter("correlation tensor of a valid state has T[0,0] = 1")
    alice = [np.asarray(s, dtype=float) for s in alice_directions]
    if bob_directions is None:
        bob_directions = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)]
    bob = [np.asarray(r, dtype=float) for r in bob_directions]
    for v in alice + bob:
        if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise BadParameter("measurement directions must be unit 3-vectors")
    m = len(bob)
    if len(alice) != m:
        raise DimensionMismatch("one Alice direction per Bob direction is required")
    if priors is None:
        priors = ProbVec(np.full(m, 1.0 / m))
    if priors.dim != m:
        raise DimensionMismatch("one prior per Bob measurement is required")
    spatial = t[1:, 1:]
    correlators = [float(alice[i] @ spatial @ bob[i]) for i in range(m)]

    bob_povms = [bloch_observable(tuple(r)).povm() for r in bob]
    bound_value = max(b.value for b in fine_grained_bound_map(bob_povms, priors).values())

    reports: list[DetectionReport] = []
    for bob_string in itertools.product((0, 1), repeat=m):
        for alice_string in itertools.product((0, 1), repeat=m):
            lhs = sum(
                priors.values[i]
                * 0.5
                * (1.0 + (-1.0) ** (bob_string[i] + alice_string[i]) * correlators[i])
                for i in range(m)
            )
            margin = lhs - bound_value
            reports.append(
                DetectionReport(
                    criterion="steering_fine_grained_tensor",
                    lhs_value=float(lhs),
                    bound_value=float(bound_value),
                    margin=float(margin),
                    verdict=_verdict(margin),
                    certified=True,
                    column=f"a={bob_string}, a'={alice_string}",
                )
            )
    return reports
