"""Local-lemma condition variants, thresholds, and certificate search.

The two cluster-expansion forms of the local lemma are checked, always
against exact rationals where the inputs are rational:

  cluster (exact)    P(X_i) <= mu_i / Z_i, where Z_i sums prod(mu_j) over
                     the independent subsets of the closed neighbourhood;
                     it takes the events' adjacency as a tuple of
                     neighbour sets
  cluster (clique)   the product relaxation of the exact form over a cover
                     of the closed neighbourhood by mixed cliques, with one
                     weight per event type (one type proper, two rainbow)

A certificate records the per-class probabilities, the parameters and the
checked conditions; each condition's verdict, the certificate's margin (the
smallest RHS/LHS ratio) and its verdict are derived from them, never stored.
Equality counts as holding.

The clique form has one layout, which lists each distinct clique once; the
exact check scores it in Fractions and the mu search in float logs.  The
search maximises the margin over the box [1e-12, 1e3] per weight.  In log
mu the margin is log-concave.  With one weight the search is Newton's
method on the log margin's derivative, which has a closed form; with two it
is a golden-section search per weight coordinate on two fixed weight axes.
The returned certificate is the exact check at the point found.

The paper's two settings, thm3 (properly coloured copies) and thm7 (rainbow
copies), are built in one place, certificate_inputs, from which the
reference chain, the weight search and the command line all start.  Each
threshold rule but thm2 has one exact bound on k: threshold floors it, and
the reference chain checks k against it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

from .errors import CapacityError, DomainError
from .events import (
    DISJOINT,
    INTERSECTING,
    NeighbourhoodProfile,
    clique_cover_rainbow,
    event_probability,
    graph_rates,
    proper_profile_from_rates,
    _as_fraction,
)
from .graph import falling_factorial

__all__ = [
    "LLLCertificate",
    "ConditionCheck",
    "independent_set_polynomial",
    "check_cluster_exact",
    "check_cluster_clique",
    "optimize_mu",
    "certificate_inputs",
    "threshold",
    "verify_paper_inequalities",
    "paper_mu_proper",
    "paper_mu_rainbow",
    "THEOREMS",
]

# (1/3) * (5/6)^5, the admissible-k coefficient of the proper-copy threshold
PROPER_THRESHOLD_COEFF = Fraction(3125, 23328)

THEOREMS = ("thm2", "thm3", "thm5", "thm7", "cor4")


@dataclass(frozen=True)
class ConditionCheck:
    """One checked inequality, lhs <= rhs."""

    label: str
    lhs: Fraction
    rhs: Fraction

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs

    def margin(self) -> Fraction | float:
        if self.lhs == 0:
            return math.inf
        return self.rhs / self.lhs

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "satisfied": self.satisfied,
        }


@dataclass(frozen=True)
class LLLCertificate:
    """Outcome of one condition-variant check; the margin and the verdict
    are read off the conditions.  search holds the counts of the optimize_mu
    run that chose the parameters, else None, and is not compared."""

    variant: str
    parameters: dict
    probabilities: dict
    conditions: tuple[ConditionCheck, ...]
    search: dict | None = field(default=None, compare=False)

    @cached_property
    def margin(self) -> Fraction | float:
        """The smallest rhs/lhs over the conditions; inf when every lhs is 0."""
        return min((c.margin() for c in self.conditions), default=math.inf)

    @property
    def holds(self) -> bool:
        return all(c.satisfied for c in self.conditions)

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "fails"

    def to_json(self) -> dict:
        try:
            return {
                "variant": self.variant,
                "parameters": {k: str(v) for k, v in self.parameters.items()},
                "probabilities": {k: str(v) for k, v in self.probabilities.items()},
                "margin": float(self.margin),
                "margin_exact": str(self.margin) if isinstance(self.margin, Fraction) else None,
                "verdict": self.verdict,
                "conditions": [c.to_json() for c in self.conditions],
            }
        except (ValueError, OverflowError):  # beyond the int-to-str digit limit or the float range
            raise CapacityError("certificate has a number too large to print") from None


def _mu_of(mu_assignment, index: int):
    if isinstance(mu_assignment, (list, tuple)):
        return mu_assignment[index]
    return mu_assignment


NEIGHBOURHOOD_CAP = 25


def independent_set_polynomial(
    adjacency: tuple[frozenset[int], ...], i: int, mu_assignment
) -> Fraction:
    """Sum over independent subsets R of the closed neighbourhood of i of
    prod over j in R of mu_j, where adjacency[j] is event j's neighbour set
    (as intersection_graph returns it) and mu_assignment is a list or tuple
    of weights by event, or one weight for all.

    The empty set contributes 1; on an edgeless neighbourhood of size m with
    constant mu this is (1 + mu)^m.  Exact enumeration, guarded at 25
    neighbourhood vertices.
    """
    closed = sorted(adjacency[i] | {i})
    if len(closed) > NEIGHBOURHOOD_CAP:
        raise CapacityError(
            f"closed neighbourhood of {i} has {len(closed)} vertices (cap {NEIGHBOURHOOD_CAP})"
        )
    local_index = {v: t for t, v in enumerate(closed)}
    local_adj = [
        frozenset(local_index[w] for w in adjacency[v] if w in local_index)
        for v in closed
    ]
    mu_local = [_as_fraction(_mu_of(mu_assignment, v)) for v in closed]
    cache: dict[frozenset[int], Fraction] = {}

    def total(active: frozenset[int]) -> Fraction:
        if not active:
            return Fraction(1)
        got = cache.get(active)
        if got is not None:
            return got
        v = min(active)
        rest = active - {v}
        value = total(rest) + mu_local[v] * total(rest - local_adj[v])
        cache[active] = value
        return value

    return total(frozenset(range(len(closed))))


def check_cluster_exact(
    probabilities, adjacency: tuple[frozenset[int], ...], mu_assignment
) -> LLLCertificate:
    """Exact cluster condition: P(X_i) <= mu_i / Z_i for every event, over
    the neighbour sets adjacency[i] that intersection_graph returns."""
    probs = [_as_fraction(p) for p in probabilities]
    if len(probs) != len(adjacency):
        raise DomainError("probabilities and adjacency differ in length")
    conditions = []
    mus = {}
    for i, p in enumerate(probs):
        if not 0 <= p <= 1:
            raise DomainError(f"need probabilities in [0, 1], got {p} at {i}")
        mu_i = _as_fraction(_mu_of(mu_assignment, i))
        if mu_i <= 0:
            raise DomainError(f"mu must be positive, got {mu_i} at {i}")
        mus[f"mu_{i}"] = mu_i
        z = independent_set_polynomial(adjacency, i, mu_assignment)
        conditions.append(ConditionCheck(f"event {i}", p, mu_i / z))
    return LLLCertificate(
        variant="cluster-exact-10",
        parameters=mus,
        probabilities={f"event {i}": p for i, p in enumerate(probs)},
        conditions=tuple(conditions),
    )


def _clique_terms(p_by_class, clique_profile) -> tuple[list[tuple], dict[str, tuple]]:
    """The clique form as (cliques, terms): terms maps each event type s, in
    the order intersecting, disjoint, to (p_s, [(count, i)]), and cliques[i]
    is a distinct clique, listed once, as its bound per type (0 where it
    counts none), so that the condition for s reads

        p_s <= mu_s / prod over (count, i) (1 + sum_t mu_t * bound_t of i) ** count.

    A bare probability and profile are the one intersecting type.  A
    DomainError unless the probabilities and the profiles name the same
    types, each p_s is in [0, 1] and each count and bound is >= 0."""
    if isinstance(clique_profile, NeighbourhoodProfile):
        p_by_class, clique_profile = {INTERSECTING: p_by_class}, {INTERSECTING: clique_profile}
    if not (isinstance(clique_profile, Mapping) and isinstance(p_by_class, Mapping)):
        raise DomainError("need a bare probability and profile, or mappings of both by event type")
    types = [t for t in (INTERSECTING, DISJOINT) if t in clique_profile]
    if not types or len(types) != len(clique_profile) or p_by_class.keys() != clique_profile.keys():
        raise DomainError(f"need one probability and one profile per event type, "
                          f"got {list(p_by_class)} and {list(clique_profile)}")
    index: dict[tuple, int] = {}
    terms = {}
    for s in types:
        p = _as_fraction(p_by_class[s])
        if not 0 <= p <= 1:
            raise DomainError(f"need probabilities in [0, 1], got {p} for {s}")
        uses = []
        for count, bounds in clique_profile[s].cliques():
            clique = tuple(_as_fraction(bounds.get(t, 0)) for t in types)
            if bounds.keys() - clique_profile.keys() or type(count) is not int or min(count, *clique) < 0:
                raise DomainError(f"need an int count and bounds >= 0 on types {types}, "
                                  f"got {count} and {bounds}")
            uses.append((count, index.setdefault(clique, len(index))))
        terms[s] = (p, uses)
    return list(index), terms


def _clique_certificate(cliques, terms, mu_by_type) -> LLLCertificate:
    """check_cluster_clique on _clique_terms' layout at positive Fraction
    weights by type in terms order, each distinct clique's factor computed once."""
    factors = [1 + sum(mu * b for mu, b in zip(mu_by_type.values(), clique) if b)
               for clique in cliques]
    conditions = tuple(
        ConditionCheck(s, p, mu_by_type[s] / math.prod(factors[i] ** count for count, i in uses))
        for s, (p, uses) in terms.items()
    )
    one = len(terms) == 1
    names = dict.fromkeys(terms, "mu") if one else {INTERSECTING: "mu_int", DISJOINT: "mu_dis"}
    return LLLCertificate(
        variant="cluster-clique-3prime" if one else "cluster-two-type-4prime",
        parameters={names[t]: v for t, v in mu_by_type.items()},
        probabilities={t: p for t, (p, _) in terms.items()},
        conditions=conditions,
    )


def check_cluster_clique(p_by_class, clique_profile, mu) -> LLLCertificate:
    """Clique-cover relaxation of the exact cluster condition: for each event
    type s, p_s <= mu_s / prod over mixed cliques (1 + sum_t mu_t * bound_t) ** count.

    Inputs are mappings by event type, or a bare probability and profile for
    the one intersecting type; mu is a mapping by type, a pair (mu_int,
    mu_dis) or a bare weight.  The parameters are named mu, or mu_int and mu_dis.
    Each distinct clique of _clique_terms' layout is scored once, although
    the rainbow form lists each of its two cliques under both types.
    """
    cliques, terms = _clique_terms(p_by_class, clique_profile)
    weights = mu
    if not isinstance(mu, Mapping):
        values = tuple(mu) if isinstance(mu, (tuple, list)) else (mu,)
        weights = dict(zip(terms, values)) if len(values) == len(terms) else {}
    if weights.keys() != terms.keys():
        raise DomainError(f"need one weight per event type {list(terms)}, got {mu!r}")
    mu_by_type = {t: _as_fraction(weights[t]) for t in terms}
    if min(mu_by_type.values()) <= 0:
        raise DomainError(f"mu must be positive, got {min(mu_by_type.values())}")
    return _clique_certificate(cliques, terms, mu_by_type)


# The weight box of optimize_mu, per coordinate.
MU_LO = Fraction(1, 10**12)
MU_HI = Fraction(1000)

_INV_PHI = (math.sqrt(5) - 1) / 2
_LOG_TOL = 1e-9


def _log(x: Fraction) -> float:
    # logs of numerator and denominator separately: no float overflow
    return math.log(x.numerator) - math.log(x.denominator)


def _golden_max(f, lo: float, hi: float) -> tuple:
    """Golden-section search for the maximum of a concave f on [lo, hi].

    f returns a tuple whose first entry is the value; the search compares
    on that entry, probes each point once (about 55 probes on the weight
    box) and returns the best probe's whole tuple.  Ties go to f(lo), then
    f(hi), then the interior, so a bound is returned exactly when no
    interior probe beats it, and an optimum at the edge of the box lands on
    the edge.
    """
    a, b = lo, hi
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _LOG_TOL:
        if fc[0] < fd[0]:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
    interior = fc if fc[0] >= fd[0] else fd
    return max(f(lo), f(hi), interior, key=lambda probe: probe[0])


def _newton_max(slope, start: float, lo: float, hi: float) -> float:
    """The maximum on [lo, hi] of a concave g, where slope(x) returns
    (g'(x), -g''(x)): lo when g'(lo) <= 0, hi when g'(hi) >= 0, else Newton's
    method on g' from start inside a bracket [a, b], g'(a) > 0 >= g'(b),
    that shrinks to each point, bisecting where a step would leave it.  It
    stops at the point whose step or bracket is at most _LOG_TOL, testing
    the step first, so a step too small to move x ends it."""
    if slope(lo)[0] <= 0:
        return lo
    if slope(hi)[0] >= 0:
        return hi
    a, b, x = lo, hi, start if lo < start < hi else (lo + hi) / 2
    while True:
        d, curve = slope(x)
        a, b = (x, b) if d > 0 else (a, x)
        step = d / curve if curve else math.inf
        if abs(step) <= _LOG_TOL or b - a <= _LOG_TOL:
            return x
        x = x + step if a < x + step < b else (a + b) / 2


def optimize_mu(p_by_class, clique_profile):
    """Search mu parameters maximising the certificate margin.

    With t = log mu, the log margin of type s,
        t_s - sum over cliques count * log(1 + sum_u exp(t_u) * bound_u) - log p_s,
    is concave (a log-sum-exp of affine functions is convex), so their
    minimum over the types is concave, and so is its maximum over some
    coordinates.  Each search runs over [log MU_LO, log MU_HI] per weight,
    and each of its evaluations scores each distinct clique of
    check_cluster_clique's layout once, in floats.

    One weight: _newton_max on the slope 1 - sum c_i s_i, s_i = sigmoid(t + b_i)
    for counts c_i and log bounds b_i, from -max b_i - log(sum c_i - 1), the
    root when every clique has the largest bound.  On a proper cell given by
    delta, whose two cliques are equal, that is 3 evaluations, the slopes at
    the edges and at the start, and 1 when the optimum lies below the box.

    Two weights: a golden-section search over mu_int, each probe scored by
    one over mu_dis, of the flat log margin on the two axes: 55 probes per
    weight, 3025 evaluations.

    cert.search counts the evaluations and the clique scorings.  The
    returned certificate is the exact check at the point found; an optimum
    on the edge of the box is returned as the exact bound.  When the
    optimum lies below MU_LO, as for the rainbow form at large n, the
    certificate fails although the reference weights may hold.

    Returns (cert.parameters, cert); the certificate fails (margin < 1)
    when no feasible point exists.
    """
    cliques, terms = _clique_terms(p_by_class, clique_profile)
    # each distinct clique's log bound per axis (the types in terms order),
    # -inf for a 0 bound: exp(-inf) = 0.0
    log_bounds = [tuple(_log(b) if b else -math.inf for b in clique) for clique in cliques]
    exp, log = math.exp, math.log
    evaluations = 0
    lo, hi = _log(MU_LO), _log(MU_HI)

    if len(terms) == 1:
        (_, uses), = terms.values()
        counts = [0] * len(cliques)
        for count, i in uses:
            counts[i] += count
        live = [(count, b) for count, (b,) in zip(counts, log_bounds)]

        def slope(x: float) -> tuple[float, float]:
            nonlocal evaluations
            evaluations += 1
            d, curve = 1.0, 0.0
            for count, b in live:  # s = sigmoid(x + b) from e = exp(-|x + b|) <= 1
                z = x + b
                e = exp(-abs(z))
                s = 1 / (1 + e)
                d -= count * (s if z >= 0 else e * s)
                curve += count * e * s * s
            return d, curve

        finite = [(count, b) for count, b in live if count and b > -math.inf]
        total = sum(count for count, _ in finite)
        # the root of the slope when every such clique has the largest bound
        start = -max(b for _, b in finite) - log(total - 1) if total > 1 else hi
        point = (_newton_max(slope, start, lo, hi),)
    else:
        log_terms = [(axis, _log(p), uses) for axis, (p, uses) in enumerate(terms.values()) if p]

        def log_margin(x0: float, x1: float) -> tuple[float, tuple[float, float]]:
            nonlocal evaluations
            evaluations += 1
            scores = []
            for b0, b1 in log_bounds:  # log(1 + exp(e0) + exp(e1)), scaled by max(0, e0, e1)
                e0, e1 = x0 + b0, x1 + b1
                top = e0 if e0 > e1 else e1
                top = top if top > 0.0 else 0.0
                scores.append(top + log(exp(-top) + exp(e0 - top) + exp(e1 - top)))
            x = (x0, x1)
            worst = math.inf
            for axis, log_p, uses in log_terms:
                value = x[axis] - log_p
                for count, i in uses:
                    value -= count * scores[i]
                worst = value if value < worst else worst
            return worst, x

        _, point = _golden_max(
            lambda x0: _golden_max(lambda x1: log_margin(x0, x1), lo, hi), lo, hi)
    # exp(lo) and exp(hi) round to weights inside the box, so no point
    # between them gives a weight outside it
    mus = [MU_LO if x == lo else MU_HI if x == hi else Fraction(exp(x)) for x in point]
    cert = replace(_clique_certificate(cliques, terms, dict(zip(terms, mus))),
                   search={"evaluations": evaluations, "scorings": evaluations * len(cliques)})
    return cert.parameters, cert


def _proper_rates(delta, q, p) -> tuple[Fraction, Fraction]:
    """thm3's rates (q, p) of graph_rates' values; a DomainError when missing or negative."""
    if q is None:
        raise DomainError("thm3 needs cherry statistics, q and p, or a maximum degree")
    q, p = _as_fraction(q), _as_fraction(p)
    if min(q, p, delta or 0) < 0:
        raise DomainError(f"thm3 needs delta, q, p >= 0, got delta={delta}, q={q}, p={p}")
    return q, p


def _degree(rule: str, delta, least: int = 1) -> int:
    """The degree of graph_rates' values; a DomainError when missing or below least."""
    if delta is None:
        raise DomainError(f"{rule} needs a maximum degree")
    if delta < least:
        raise DomainError(f"{rule} needs delta >= {least}, got {delta}")
    return delta


def _bound(theorem: str, n: int, rates: tuple) -> Fraction:
    """The exact bound on k of thm3, thm5, thm7 or cor4 at graph_rates' values;
    threshold floors it and verify_paper_inequalities checks k against it."""
    if theorem == "thm5":
        return Fraction(n, 64)
    if theorem == "thm3":
        q, p = _proper_rates(*rates)
        if q + 3 * p <= 0:
            raise DomainError(f"thm3 needs q + 3p > 0 (a graph with cherries), got {q + 3 * p}")
        return PROPER_THRESHOLD_COEFF * (n - 2) / (q + 3 * p)
    d2 = _degree(theorem, rates[0]) ** 2
    return Fraction(n, 51 * d2) if theorem == "thm7" else Fraction(5 * (n - 2), 112 * d2)


def threshold(theorem: str, n: int, *, delta: int | None = None, stats=None, q=None, p=None) -> int:
    """Largest admissible integer colour bound k for a named threshold rule.

    thm2: largest k with 216*(3k + 2*delta)^7 * (delta + 1)^20 * k < n
          (strict; bisection over [0, n])

    The other rules floor an exact bound, and 0 when it is negative:
    thm3: (1/3)(5/6)^5 (n-2) / (q + 3p), locally bounded, proper
    thm5: n / 64, bounded, rainbow cycles
    thm7: n / (51 * delta^2), bounded, rainbow
    cor4: (n - 2) / (22.4 * delta^2), locally bounded, proper

    The graph is given by one source, as events.graph_rates reads it: delta,
    cherry statistics, or (thm3 only) q and p; thm5 reads none.
    """
    if theorem not in THEOREMS:
        raise DomainError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")
    rates = graph_rates(n, delta=delta, stats=stats, q=q, p=p)
    if theorem != "thm2":
        return max(0, math.floor(_bound(theorem, n, rates)))
    delta = _degree(theorem, rates[0], least=0)
    # the left side grows with k, so the k that satisfy it are a prefix
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if 216 * (3 * mid + 2 * delta) ** 7 * (delta + 1) ** 20 * mid < n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def certificate_inputs(setting: str, n: int, k, *, delta: int | None = None,
                       stats=None, q=None, p=None):
    """Event probabilities and clique profile(s) of a reference certificate.

    setting "thm3" (proper copies): one intersecting event type, probability
        1/(n)_3, profile proper_profile_from_rates(q, p, n, k).
    setting "thm7" (rainbow copies): the intersecting and disjoint types,
        probabilities 1/(n)_3 and 1/(n)_4, profiles clique_cover_rainbow.
    The graph is given by one source, as events.graph_rates reads it: delta,
    cherry statistics, or (thm3 only) q and p.

    Returns (probabilities, profiles) in the form check_cluster_clique and
    optimize_mu take: one Fraction and one profile for thm3, mappings by
    event type for thm7.  k is not checked against the threshold.
    """
    return _inputs(setting, n, k, graph_rates(n, delta=delta, stats=stats, q=q, p=p))


def _inputs(setting: str, n: int, k, rates: tuple):
    """certificate_inputs at graph_rates' (delta, q, p)."""
    if setting == "thm3":
        if n < 3:
            raise DomainError(f"thm3 needs n >= 3, got {n}")
        profile = proper_profile_from_rates(*_proper_rates(*rates), n, k)
        return event_probability(INTERSECTING, n), profile
    if setting == "thm7":
        delta = _degree(setting, rates[0])
        if n < 4:
            raise DomainError(f"thm7 needs n >= 4, got {n}")
        probabilities = {t: event_probability(t, n) for t in (INTERSECTING, DISJOINT)}
        return probabilities, {t: clique_cover_rainbow(delta, n, k, t) for t in probabilities}
    raise DomainError(f"unknown setting {setting!r}; expected 'thm3' or 'thm7'")


def paper_mu_proper(n: int) -> Fraction:
    """Reference weight (6/5)^6 / (n)_3 for the proper-copy certificate."""
    return Fraction(6, 5) ** 6 / falling_factorial(n, 3)


def paper_mu_rainbow(n: int) -> tuple[Fraction, Fraction]:
    """Reference weights ((7/(5n))^3, (7/(5n))^4) for the rainbow certificate."""
    base = Fraction(7, 5 * n)
    return base**3, base**4


def verify_paper_inequalities(setting: str, *, n: int, k, delta: int | None = None,
                              stats=None, q=None, p=None) -> dict:
    """Recompute the reference inequality chain behind a threshold, exactly.

    Both settings start from certificate_inputs; direct_certificate is
    check_cluster_clique on its output at the reference weights, and the
    product factor is read off its conditions, as mu / rhs.

    setting "thm3" (proper copies, locally bounded):
        with mu = (6/5)^6/(n)_3 and k within the thm3 bound, check
          k*mu <= (2/5) / ((n)_2 (q + 3p)),
          product factor: prod over cliques (1 + mu * bound)^3 <= (6/5)^6,
          certificate: 1/(n)_3 <= mu / product, the direct certificate's condition.

    setting "thm7" (rainbow copies, bounded):
        with mu_int = (7/(5n))^3, mu_dis = (7/(5n))^4 and k <= n/(51 delta^2),
        check the product factor (the graph-side times the image-side mixed
        clique factor of one event vertex) against (50/51)(14/10) and the
        two boundary inequalities (51/(50n))^4 >= 1/(n)_4 (needs n >= 77)
        and (51/(50n))^3 >= 1/(n)_3.

    Parameters outside the threshold hypothesis (k above the bound that
    threshold floors, bad delta) raise DomainError; the n >= 77 boundary
    is a reported step, so the report can witness where small n fails.
    """
    if setting not in ("thm3", "thm7"):
        raise DomainError(f"unknown setting {setting!r}; expected 'thm3' or 'thm7'")
    k = _as_fraction(k)
    if k < 0:
        raise DomainError(f"k must be nonnegative, got {k}")
    rates = graph_rates(n, delta=delta, stats=stats, q=q, p=p)
    bound = _bound(setting, n, rates)
    if k > bound:
        raise DomainError(f"k={k} exceeds the {setting} bound {bound}")
    probabilities, profiles = _inputs(setting, n, k, rates)
    report: dict = {"setting": setting, "n": n, "k": k}
    mu = paper_mu_proper(n) if setting == "thm3" else paper_mu_rainbow(n)
    direct = check_cluster_clique(probabilities, profiles, mu)
    # mu_s / rhs_s is the clique product of type s: for thm7 the factor of an event
    # vertex's graph-side and image-side cliques to the power 3 or 4
    products = [w / c.rhs for w, c in zip(direct.parameters.values(), direct.conditions)]

    if setting == "thm3":
        q, p = _proper_rates(*rates)
        product = products[0]
        steps = [
            ConditionCheck("k*mu bound", k * mu,
                           Fraction(2, 5) / (falling_factorial(n, 2) * (q + 3 * p))),
            ConditionCheck("product factor", product, Fraction(6, 5) ** 6),
            replace(direct.conditions[0], label="certificate"),
        ]
        report.update({"mu": mu, "q": q, "p": p})
    else:
        product = products[1] / products[0]
        lower = Fraction(51, 50 * n)
        steps = [
            ConditionCheck("product factor", product, Fraction(50, 51) * Fraction(14, 10)),
            ConditionCheck("p_dis boundary", probabilities[DISJOINT], lower**4),
            ConditionCheck("p_int boundary", probabilities[INTERSECTING], lower**3),
        ]
        report.update(direct.parameters)

    report["product_factor"] = float(product)
    report["direct_certificate"] = direct.to_json()
    report["steps"] = [s.to_json() for s in steps]
    report["ok"] = all(s.satisfied for s in steps)
    return report
