import bisect
import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import adjacency_from_edges
from rainbowcopy import (
    CapacityError,
    DomainError,
    certificate_inputs,
    check_cluster_clique,
    check_cluster_exact,
    cherry_stats,
    complete_graph,
    cycle_graph,
    falling_factorial,
    independent_set_polynomial,
    optimize_mu,
    paper_mu_proper,
    paper_mu_rainbow,
    path_graph,
    threshold,
    verify_paper_inequalities,
)
from rainbowcopy.events import (
    DISJOINT,
    INTERSECTING,
    NeighbourhoodProfile,
    clique_cover_rainbow,
    graph_rates,
    proper_profile_from_rates,
)
from rainbowcopy import lll
from rainbowcopy.lll import MU_HI, MU_LO


def single_clique_profile(size) -> NeighbourhoodProfile:
    return NeighbourhoodProfile(1, {INTERSECTING: Fraction(size)}, {})


def rainbow_cell(n, delta, k):
    profiles = {t: clique_cover_rainbow(delta, n, k, t) for t in (INTERSECTING, DISJOINT)}
    probs = {
        INTERSECTING: Fraction(1, falling_factorial(n, 3)),
        DISJOINT: Fraction(1, falling_factorial(n, 4)),
    }
    return probs, profiles


def proper_cell(n, delta, k):
    # worst-case cherry rates for maximum degree delta
    q, p = Fraction(3, 2) * delta * delta, Fraction(delta * delta, 2)
    return Fraction(1, falling_factorial(n, 3)), proper_profile_from_rates(q, p, n, k)


def earlier_mu_grid() -> list[Fraction]:
    """The weights of the grid scan that optimize_mu used to run: 1/10^12
    times powers of Fraction(10.0**0.25) while at most 1000, then 1000."""
    ratio = Fraction(10.0**0.25)
    points = [Fraction(1, 10**12)]
    while points[-1] * ratio <= 1000:
        points.append(points[-1] * ratio)
    if points[-1] < 1000:
        points.append(Fraction(1000))
    return points


class TestIndependentSetPolynomial:
    def test_isolated_vertex(self):
        adj = adjacency_from_edges(1, [])
        assert independent_set_polynomial(adj, 0, Fraction(1, 2)) == Fraction(3, 2)

    def test_clique(self):
        for s in (2, 3, 5):
            edges = [(i, j) for i in range(s) for j in range(i + 1, s)]
            adj = adjacency_from_edges(s, edges)
            mu = Fraction(2, 7)
            assert independent_set_polynomial(adj, 0, mu) == 1 + s * mu

    def test_path_centre(self):
        adj = adjacency_from_edges(3, [(0, 1), (1, 2)])
        mu = Fraction(1, 3)
        assert independent_set_polynomial(adj, 1, mu) == 1 + 3 * mu + mu * mu

    def test_edgeless_neighbourhood_power_form(self):
        # star centre: neighbourhood is edgeless apart from the centre
        edges = [(0, i) for i in range(1, 8)]
        adj = adjacency_from_edges(8, edges)
        mu = Fraction(1, 5)
        # R independent in closed nbhd of 0: either {0} or any leaf subset
        assert independent_set_polynomial(adj, 0, mu) == (1 + mu) ** 7 + mu

    def test_per_vertex_weights(self):
        adj = adjacency_from_edges(3, [(0, 1), (1, 2)])
        mus = [Fraction(1), Fraction(2), Fraction(3)]
        # independent subsets of {0,1,2} at centre: {}, {0}, {1}, {2}, {0,2}
        assert independent_set_polynomial(adj, 1, mus) == 1 + 1 + 2 + 3 + 3

    def test_capacity_guard(self):
        edges = [(0, i) for i in range(1, 27)]
        adj = adjacency_from_edges(27, edges)
        with pytest.raises(CapacityError):
            independent_set_polynomial(adj, 0, Fraction(1))


class TestClusterExact:
    def test_bad_args(self):
        adj = adjacency_from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(DomainError):
            check_cluster_exact([Fraction(1, 10)] * 2, adj, Fraction(1, 2))
        for probs in ([Fraction(-1, 2), Fraction(1, 10)], [Fraction(11, 10), Fraction(1, 10)]):
            with pytest.raises(DomainError):
                check_cluster_exact(probs, (frozenset({1}), frozenset({0})), Fraction(1, 5))
        for mu in (0, Fraction(-1, 2), [Fraction(1, 2), 0, Fraction(1, 2)]):
            with pytest.raises(DomainError):
                check_cluster_exact([Fraction(1, 10)] * 3, adj, mu)

    def test_matches_hand_computation(self):
        adj = adjacency_from_edges(3, [(0, 1), (1, 2)])
        mu = Fraction(1, 2)
        cert = check_cluster_exact([Fraction(1, 10)] * 3, adj, mu)
        # at the centre: Z = 1 + 3mu + mu^2 = 11/4, bound mu/Z = 2/11
        assert cert.holds
        centre = [c for c in cert.conditions if c.label == "event 1"][0]
        assert centre.rhs == Fraction(1, 2) / Fraction(11, 4)

    def test_exact_not_weaker_than_full_subset_form(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 8)
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
            ]
            adj = adjacency_from_edges(n, edges)
            mu = Fraction(rng.randint(1, 8), rng.randint(1, 8))
            for i in range(n):
                z = independent_set_polynomial(adj, i, mu)
                m = len(adj[i] | {i})
                assert z <= (1 + mu) ** m


class TestClusterClique:
    def test_equality_case(self):
        cert = check_cluster_clique(
            Fraction(9, 100), single_clique_profile(10), Fraction(9, 10)
        )
        assert cert.holds and cert.margin == 1

    def test_above_supremum_fails(self):
        for mu in (Fraction(1, 100), Fraction(1), Fraction(100), Fraction(10**6)):
            cert = check_cluster_clique(Fraction(11, 100), single_clique_profile(10), mu)
            assert not cert.holds

    def test_proper_instantiation_at_bound(self):
        n, q, p = 1000, Fraction(3), Fraction(1)
        k = threshold("thm3", n, q=q, p=p)
        profile = proper_profile_from_rates(q, p, n, k)
        cert = check_cluster_clique(
            Fraction(1, falling_factorial(n, 3)), profile, paper_mu_proper(n)
        )
        assert cert.holds

    def test_two_type_form(self):
        n, delta = 204, 1
        k = threshold("thm7", n, delta=delta)
        profiles = {
            INTERSECTING: clique_cover_rainbow(delta, n, k, INTERSECTING),
            DISJOINT: clique_cover_rainbow(delta, n, k, DISJOINT),
        }
        probs = {
            INTERSECTING: Fraction(1, falling_factorial(n, 3)),
            DISJOINT: Fraction(1, falling_factorial(n, 4)),
        }
        cert = check_cluster_clique(probs, profiles, paper_mu_rainbow(n))
        assert cert.holds
        assert cert.variant == "cluster-two-type-4prime"

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(DomainError):
            check_cluster_clique(Fraction(1, 10), single_clique_profile(10), 0)

    def test_monotone_in_p_and_bounds(self):
        rng = random.Random(19)
        for _ in range(40):
            size = rng.randint(1, 40)
            p = Fraction(rng.randint(1, 50), 1000)
            mu = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            base = check_cluster_clique(p, single_clique_profile(size), mu)
            worse_p = check_cluster_clique(
                p + Fraction(rng.randint(1, 10), 1000), single_clique_profile(size), mu
            )
            worse_q = check_cluster_clique(
                p, single_clique_profile(size + rng.randint(1, 10)), mu
            )
            if worse_p.holds:
                assert base.holds
            if worse_q.holds:
                assert base.holds


class TestOptimizeMu:
    def test_feasible_single_clique(self):
        params, cert = optimize_mu(Fraction(1, 20), single_clique_profile(10))
        assert cert.holds and cert.margin >= 1
        # closed form: mu = p/(1 - 10p) = 1/10 gives equality, larger mu improves
        assert params["mu"] > 0

    def test_infeasible(self):
        params, cert = optimize_mu(Fraction(11, 100), single_clique_profile(10))
        assert not cert.holds and cert.margin < 1

    def test_margin_at_least_every_grid_point(self):
        profile = single_clique_profile(7)
        p = Fraction(1, 25)
        params, cert = optimize_mu(p, profile)
        for mu in earlier_mu_grid():
            grid_cert = check_cluster_clique(p, profile, mu)
            assert cert.margin >= grid_cert.margin

    def test_deterministic(self):
        probs = {
            INTERSECTING: Fraction(1, falling_factorial(100, 3)),
            DISJOINT: Fraction(1, falling_factorial(100, 4)),
        }
        profiles = {
            INTERSECTING: clique_cover_rainbow(2, 100, 2, INTERSECTING),
            DISJOINT: clique_cover_rainbow(2, 100, 2, DISJOINT),
        }
        first = optimize_mu(probs, profiles)
        second = optimize_mu(probs, profiles)
        assert first[0] == second[0]
        assert first[1].margin == second[1].margin

    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("rule", ["thm7", "n/42"])
    def test_two_type_margin_at_least_every_grid_point(self, n, rule):
        k = threshold("thm7", n, delta=1) if rule == "thm7" else Fraction(n, 42)
        probs, profiles = rainbow_cell(n, 1, k)
        params, cert = optimize_mu(probs, profiles)
        grid = earlier_mu_grid()
        # The condition of one type only tightens as the other weight grows,
        # so its margin with the other weight at the grid's least point
        # bounds it along the whole grid line.  Points where either bound is
        # already <= cert.margin need no exact check of their own.
        upper_int = {
            a: check_cluster_clique(probs, profiles, (a, grid[0])).conditions[0].margin()
            for a in grid
        }
        upper_dis = {
            b: check_cluster_clique(probs, profiles, (grid[0], b)).conditions[1].margin()
            for b in grid
        }
        for a in grid:
            for b in grid:
                if min(upper_int[a], upper_dis[b]) > cert.margin:
                    assert cert.margin >= check_cluster_clique(probs, profiles, (a, b)).margin

    def test_optimum_on_the_upper_bound_is_exact(self):
        params, cert = optimize_mu(Fraction(1, 25), single_clique_profile(7))
        assert params == {"mu": MU_HI}
        assert cert.holds and cert.parameters == {"mu": MU_HI}

    def test_optimum_below_the_box_returns_the_lower_corner(self):
        n = 10**4
        params, cert = optimize_mu(*rainbow_cell(n, 1, threshold("thm7", n, delta=1)))
        assert params == {"mu_int": MU_LO, "mu_dis": MU_LO}
        assert not cert.holds

    def test_zero_probability_single(self):
        params, cert = optimize_mu(Fraction(0), single_clique_profile(10))
        assert cert.holds and cert.margin == math.inf
        assert MU_LO <= params["mu"] <= MU_HI

    def test_zero_probability_two_type(self):
        _, profiles = rainbow_cell(100, 1, 2)
        zero = {INTERSECTING: Fraction(0), DISJOINT: Fraction(0)}
        params, cert = optimize_mu(zero, profiles)
        assert cert.holds and cert.margin == math.inf
        assert all(MU_LO <= v <= MU_HI for v in params.values())
        for mu in ((Fraction(1, 7), Fraction(1, 9)),
                   {INTERSECTING: Fraction(1, 7), DISJOINT: Fraction(1, 9)}):
            cert = check_cluster_clique(zero, profiles, mu)
            assert cert.holds and cert.margin == math.inf

    def test_one_zero_probability_leaves_the_other_condition(self):
        probs, profiles = rainbow_cell(1000, 1, 19)
        params, cert = optimize_mu({**probs, INTERSECTING: Fraction(0)}, profiles)
        both = optimize_mu(probs, profiles)[1]
        assert cert.holds and math.inf > cert.margin >= both.margin

    @pytest.mark.parametrize("cell", [
        (Fraction(1, 20), single_clique_profile(10)),
        (Fraction(11, 100), single_clique_profile(10)),
        proper_cell(1000, 2, 11),
        proper_cell(10**4, 1, 500),
    ])
    def test_bare_form_is_the_one_type_mapping(self, cell):
        p, profile = cell
        mapped = ({INTERSECTING: p}, {INTERSECTING: profile})
        mu = Fraction(1, 10**7)
        cert = check_cluster_clique(p, profile, mu)
        assert cert == check_cluster_clique(*mapped, mu)
        assert cert == check_cluster_clique(*mapped, {INTERSECTING: mu})
        assert cert.variant == "cluster-clique-3prime"
        assert cert.parameters == {"mu": mu} and cert.probabilities == {INTERSECTING: p}
        assert [c.label for c in cert.conditions] == [INTERSECTING]
        assert optimize_mu(p, profile) == optimize_mu(*mapped)

    def test_two_type_weights_are_mu_int_and_mu_dis(self):
        probs, profiles = rainbow_cell(1000, 2, 4)
        params, cert = optimize_mu(probs, profiles)
        assert params == cert.parameters and list(params) == ["mu_int", "mu_dis"]
        by_type = {INTERSECTING: params["mu_int"], DISJOINT: params["mu_dis"]}
        assert check_cluster_clique(probs, profiles, by_type) == cert
        assert check_cluster_clique(probs, profiles, (params["mu_int"], params["mu_dis"])) == cert

    @pytest.mark.parametrize("mu", [
        (Fraction(1, 10), Fraction(1, 10)),
        [],
        {DISJOINT: Fraction(1, 10)},
        {INTERSECTING: Fraction(1, 10), DISJOINT: Fraction(1, 10)},
    ])
    def test_one_type_weight_count_mismatch(self, mu):
        with pytest.raises(DomainError):
            check_cluster_clique(Fraction(1, 20), single_clique_profile(10), mu)

    @pytest.mark.parametrize("mu", [
        Fraction(1, 10),
        (Fraction(1, 10),),
        (Fraction(1, 10),) * 3,
        {INTERSECTING: Fraction(1, 10)},
    ])
    def test_two_type_weight_count_mismatch(self, mu):
        with pytest.raises(DomainError):
            check_cluster_clique(*rainbow_cell(100, 1, 2), mu)

    def test_types_without_a_weight_rejected(self):
        probs, profiles = rainbow_cell(100, 1, 2)
        for bad in (
            (probs[INTERSECTING], profiles[INTERSECTING]),  # bare, but counts disjoint events
            ({**probs, "other": Fraction(1)}, {**profiles, "other": profiles[DISJOINT]}),
            ({INTERSECTING: probs[INTERSECTING]}, {INTERSECTING: profiles[INTERSECTING]}),
            ({}, {}),
        ):
            with pytest.raises(DomainError):
                check_cluster_clique(*bad, Fraction(1, 10))
            with pytest.raises(DomainError):
                optimize_mu(*bad)

    @pytest.mark.parametrize("probs, profiles", [
        # a probability missing for a profiled type
        ({INTERSECTING: Fraction(1, 10**6)}, rainbow_cell(100, 1, 2)[1]),
        # a probability for a type with no profile
        ({INTERSECTING: Fraction(1, 20), DISJOINT: Fraction(1, 20)},
         {INTERSECTING: single_clique_profile(10)}),
        # probabilities outside [0, 1]
        (Fraction(-1, 10), single_clique_profile(10)),
        (Fraction(11, 10), single_clique_profile(10)),
        ({**rainbow_cell(100, 1, 2)[0], DISJOINT: Fraction(-1)}, rainbow_cell(100, 1, 2)[1]),
        # negative bounds
        (Fraction(1, 20), single_clique_profile(Fraction(-1, 10))),
        (Fraction(1, 20), single_clique_profile(-5)),
        (Fraction(1, 20), NeighbourhoodProfile(3, {INTERSECTING: Fraction(1)}, {INTERSECTING: -1})),
        # clique counts that are negative or not whole
        (Fraction(1, 2), NeighbourhoodProfile(-3, {INTERSECTING: Fraction(1000)}, {})),
        (Fraction(1, 2), NeighbourhoodProfile(Fraction(1, 2), {INTERSECTING: Fraction(1000)}, {})),
        # a bare probability with a mapping of profiles
        (Fraction(1, 10**6), rainbow_cell(100, 1, 2)[1]),
    ], ids=["missing-p", "unprofiled-p", "negative-p", "p-above-1", "negative-p-dis",
            "bound-minus-tenth", "bound-minus-5", "negative-image-bound", "negative-count",
            "half-count", "bare-p-with-profile-mapping"])
    def test_inputs_outside_the_domain_rejected(self, probs, profiles):
        with pytest.raises(DomainError):
            check_cluster_clique(probs, profiles, Fraction(1, 10) if isinstance(profiles, NeighbourhoodProfile)
                                 else dict.fromkeys(profiles, Fraction(1, 10)))
        with pytest.raises(DomainError):
            optimize_mu(probs, profiles)

    @pytest.mark.parametrize("mode", ["rainbow", "proper"])
    def test_huge_n_does_not_overflow(self, mode):
        n = 10**40
        if mode == "rainbow":
            params, cert = optimize_mu(*rainbow_cell(n, 1, threshold("thm7", n, delta=1)))
        else:
            params, cert = optimize_mu(*proper_cell(n, 1, threshold("cor4", n, delta=1)))
        assert not cert.holds
        assert set(params.values()) == {MU_LO}


class TestGoldenMax:
    lo, hi = lll._log(MU_LO), lll._log(MU_HI)

    def run(self, value):
        """_golden_max on the weight box with an f that records each probe
        and returns (value, payload); returns (best, probes, results)."""
        probes, results = [], []

        def f(x):
            probes.append(x)
            results.append((value(x), ["payload", x]))
            return results[-1]

        return lll._golden_max(f, self.lo, self.hi), probes, results

    def test_each_point_probed_once(self):
        _, probes, _ = self.run(lambda x: -(x - 1.3) ** 2)
        assert len(probes) == len(set(probes))

    def test_returns_the_best_probes_own_tuple(self):
        best, _, results = self.run(lambda x: -(x - 1.3) ** 2)
        assert any(best is r for r in results)
        assert best[0] == max(r[0] for r in results)
        assert best[1] == ["payload", best[1][1]] and abs(best[1][1] - 1.3) < 1e-8

    @pytest.mark.parametrize("slope, edge", [(1, "hi"), (-1, "lo"), (0, "lo")])
    def test_monotone_f_returns_the_bound_itself(self, slope, edge):
        best, _, _ = self.run(lambda x: slope * x)
        assert best[1][1] == getattr(self, edge)

    def test_probe_count_is_the_one_the_tolerance_implies(self):
        # each step keeps _INV_PHI of the bracket until it is at most
        # _LOG_TOL wide; two first interior probes, one per step, then lo and hi
        steps = math.ceil(math.log(lll._LOG_TOL / (self.hi - self.lo)) / math.log(lll._INV_PHI))
        _, probes, _ = self.run(lambda x: -(x - 1.3) ** 2)
        assert len(probes) == 2 + steps + 2 == 55


# Evaluations and clique scorings of one search at n = 3000 on the threshold
# cells, each distinct clique scored once per evaluation: 55 margin probes per
# weight on thm7's two distinct cliques; on cor4's one (its graph-side and
# image-side cliques are equal) the slopes at the two edges and at the start,
# which is already the root.  Scoring each clique once per listing instead
# would give 12100 rainbow scorings and 6 proper ones.
SEARCH_EVALUATIONS = {"thm7": 55 * 55, "cor4": 3}


@pytest.mark.parametrize("theorem, delta, scorings", [("thm7", 1, 55 * 55 * 2), ("cor4", 2, 3)])
def test_search_scores_each_distinct_clique_once_per_point(theorem, delta, scorings):
    cell = rainbow_cell if theorem == "thm7" else proper_cell
    _, cert = optimize_mu(*cell(3000, delta, threshold(theorem, 3000, delta=delta)))
    assert cert.search == {"evaluations": SEARCH_EVALUATIONS[theorem], "scorings": scorings}


def _log1p_sum_exp(exponents: list[float]) -> float:
    """log(1 + sum of exp(e)), without overflow."""
    top = max([0.0, *exponents])
    total = math.exp(-top)
    for e in exponents:
        total += math.exp(e - top)
    return top + math.log(total)


def reference_terms(p_by_class, clique_profile) -> dict:
    """{event type: (p, profile.cliques())}, the types in the order
    intersecting, disjoint; a bare probability and profile are the one
    intersecting type."""
    if isinstance(clique_profile, NeighbourhoodProfile):
        p_by_class, clique_profile = {INTERSECTING: p_by_class}, {INTERSECTING: clique_profile}
    return {t: (Fraction(p_by_class[t]), clique_profile[t].cliques())
            for t in (INTERSECTING, DISJOINT) if t in clique_profile}


def reference_factor(cliques, mu_by_type) -> Fraction:
    """prod over the listed cliques (1 + sum_t mu_t * bound_t) ** count,
    clique by clique, in Fractions: an equal clique listed twice is
    computed twice."""
    factor = Fraction(1)
    for count, bounds in cliques:
        factor *= sum((mu_by_type[t] * b for t, b in bounds.items()), Fraction(1)) ** count
    return factor


def reference_golden_max(f, lo: float, hi: float) -> tuple:
    """The golden-section search of optimize_mu, written out apart from
    lll._golden_max: the bracket shrinks by (sqrt(5) - 1) / 2 per step until
    it is at most 1e-9 wide, and the best of f(lo), f(hi) and the better
    interior probe wins, ties going to lo, then hi, then the interior."""
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-9:
        if fc[0] < fd[0]:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
    best = f(lo)
    for probe in (f(hi), fc if fc[0] >= fd[0] else fd):
        if probe[0] > best[0]:
            best = probe
    return best


def reference_search(p_by_class, clique_profile):
    """optimize_mu's certificate as the search found it before its fixed
    two-axis layout: shapes keyed by their (axis, log bound) pairs in the
    order each bound mapping lists them, one log-sum-exp call per shape,
    and a recursive golden-section search, one level per weight."""
    terms = reference_terms(p_by_class, clique_profile)
    axis = {t: i for i, t in enumerate(terms)}
    shapes: dict[tuple, int] = {}

    def shape_of(bounds) -> int:
        key = tuple((axis[t], lll._log(b)) for t, b in bounds.items() if b)
        return shapes.setdefault(key, len(shapes))

    log_terms = [(axis[s], lll._log(p), [(count, shape_of(bounds)) for count, bounds in cliques])
                 for s, (p, cliques) in terms.items() if p]

    def log_margin(x: list[float]) -> float:
        scores = [_log1p_sum_exp([x[t] + log_b for t, log_b in shape]) for shape in shapes]
        worst = math.inf
        for s, log_p, cliques in log_terms:
            value = x[s] - log_p
            for count, i in cliques:
                value -= count * scores[i]
            worst = min(worst, value)
        return worst

    lo, hi = lll._log(MU_LO), lll._log(MU_HI)

    def search(fixed: list[float]) -> tuple[float, list[float]]:
        if len(fixed) == len(axis):
            return log_margin(fixed), fixed
        return reference_golden_max(lambda t: search([*fixed, t]), lo, hi)

    mus = [MU_LO if x == lo else MU_HI if x == hi else Fraction(math.exp(x))
           for x in search([])[1]]
    return check_cluster_clique(p_by_class, clique_profile, dict(zip(terms, mus)))


def reference_cells() -> list[tuple]:
    """A seeded grid of (setting, n, k, rule) cells for certificate_inputs:
    both settings, n from 5 to 10^5, delta 1 to 3 or the cherry statistics
    of a small graph, and k at, below and above the threshold, at the exact
    bound and at a fraction of it."""
    rng = random.Random(20170)
    rules = [{"delta": d} for d in (1, 2, 3)]
    rules += [{"stats": cherry_stats(g)} for g in (cycle_graph(5), path_graph(7), complete_graph(4))]
    cells = []
    for setting in ("thm7", "thm3"):
        for n in (5, 6, 9, 20, 77, 100, 316, 1000, 3162, 10**4, 3 * 10**4, 10**5):
            for _ in range(2):
                rule = rng.choice(rules)
                bound = lll._bound(setting, n, graph_rates(n, **rule))
                top = math.floor(bound)
                ks = [top, max(top - 1, 0), top + 1, bound, bound * Fraction(rng.randint(1, 40), 16)]
                cells.append((setting, n, ks[len(cells) % len(ks)], rule))
    return cells


def hand_built_inputs() -> list[tuple]:
    """(probabilities, profiles) that certificate_inputs never builds, with
    every bound mapping listing the intersecting type first."""
    probs, profiles = rainbow_cell(1000, 1, 19)
    g, i = profiles[INTERSECTING].graph, profiles[INTERSECTING].image
    zero = {INTERSECTING: Fraction(0), DISJOINT: g[DISJOINT]}
    return [
        # a zero bound on each side
        (probs, {t: NeighbourhoodProfile(prof.count, zero, {**i, DISJOINT: Fraction(0)})
                 for t, prof in profiles.items()}),
        # two equal cliques, one shape
        (probs, {t: NeighbourhoodProfile(prof.count, i, dict(i)) for t, prof in profiles.items()}),
        # a disjoint-only mapping
        ({DISJOINT: probs[DISJOINT]},
         {DISJOINT: NeighbourhoodProfile(4, {DISJOINT: g[DISJOINT]}, {DISJOINT: i[DISJOINT]})}),
        # bare profiles: one clique, a zero bound, no bound at all
        (Fraction(1, 25), single_clique_profile(7)),
        (Fraction(1, 20), NeighbourhoodProfile(3, {INTERSECTING: Fraction(0)}, {INTERSECTING: Fraction(2)})),
        (Fraction(1, 20), NeighbourhoodProfile(3, {}, {})),
    ]


def reordered(profiles, order, jitter=None):
    """profiles with every bound mapping listing its types in order, each
    bound scaled by jitter() when given."""
    def bounds(side):
        return {t: side[t] * (jitter() if jitter else 1) for t in order if t in side}
    return {t: NeighbourhoodProfile(prof.count, bounds(prof.graph), bounds(prof.image))
            for t, prof in profiles.items()}


def caller_built_inputs(order) -> list[tuple]:
    """Seeded rainbow cells with every bound scaled by its own factor in
    [1/2, 2], the bound mappings listing their types in order."""
    rng = random.Random(3)
    cells = []
    for _ in range(24):
        n = rng.randint(100, 5000)
        probs, profiles = rainbow_cell(n, 1, Fraction(n, rng.randint(30, 60)))
        cells.append((probs, reordered(profiles, order, lambda: Fraction(rng.randint(50, 200), 100))))
    return cells


def test_search_matches_the_reference_search():
    # The two-weight search is the reference's golden-section search; the
    # one-weight Newton search takes other points, so there only the verdict
    # and the margin are compared.
    inputs = [certificate_inputs(setting, n, k, **rule) for setting, n, k, rule in reference_cells()]
    assert len(inputs) >= 40
    inputs += hand_built_inputs() + caller_built_inputs((INTERSECTING, DISJOINT))
    for cell in inputs:
        expected = reference_search(*cell)
        params, cert = optimize_mu(*cell)
        if len(params) == 2:
            assert params == expected.parameters, cell
            assert cert.to_json() == expected.to_json(), cell
        else:
            assert cert.holds == expected.holds, cell
            assert cert.margin >= expected.margin * (1 - Fraction(1, 10**9)), cell


@pytest.mark.parametrize("order", [(INTERSECTING, DISJOINT), (DISJOINT, INTERSECTING)])
def test_check_matches_the_clique_by_clique_product(order):
    rng = random.Random(11)
    inputs = [certificate_inputs(setting, n, k, **rule) for setting, n, k, rule in reference_cells()]
    inputs += hand_built_inputs() + caller_built_inputs(order)
    for p_by_class, clique_profile in inputs:
        if isinstance(clique_profile, dict):
            clique_profile = reordered(clique_profile, order)
        terms = reference_terms(p_by_class, clique_profile)
        mu = {t: Fraction(rng.randint(1, 999), 10 ** rng.randint(3, 16)) for t in terms}
        cert = check_cluster_clique(p_by_class, clique_profile, mu)
        assert cert.conditions == tuple(
            lll.ConditionCheck(t, p, mu[t] / reference_factor(cliques, mu))
            for t, (p, cliques) in terms.items())


def test_search_on_disjoint_first_profiles_keeps_the_verdict():
    # A clique's terms are summed in axis order, the reference's in the order
    # its bound mapping lists them, so on mappings that list the disjoint
    # type first the float weights may differ in the last bits.
    order = (DISJOINT, INTERSECTING)
    cells = caller_built_inputs(order)
    cells += [(probs, reordered(profiles, order))
              for probs, profiles in hand_built_inputs() if isinstance(profiles, dict)]
    differ = 0
    for probs, profiles in cells:
        expected = reference_search(probs, profiles)
        params, cert = optimize_mu(probs, profiles)
        differ += params != expected.parameters
        assert cert.holds == expected.holds
        assert math.isclose(float(cert.margin), float(expected.margin), rel_tol=1e-9)
    assert differ  # the cells reach the order difference


class CliqueList(tuple):
    """A clique profile given as its (count, bounds) pairs."""

    def cliques(self) -> list[tuple[int, dict[str, Fraction]]]:
        return list(self)


def one_weight_systems() -> list[tuple]:
    """Seeded one-weight (probabilities, profiles): 1-3 distinct cliques of
    count 1-6 on one event type, a fifth of the bounds and a tenth of the
    probabilities 0, the other bounds spread so that the optimum falls below,
    inside and above the box; first four single cliques whose optimum lies
    1e-6 inside an edge of the box in log mu."""
    rng = random.Random(29)
    # count c and bound b have the optimum mu = 1 / ((c - 1) b)
    systems = [({INTERSECTING: Fraction(1, 10**6)},
                {INTERSECTING: CliqueList([(c, {INTERSECTING: 1 / ((c - 1) * edge * inside)})])})
               for c in (2, 5) for edge, inside in ((MU_LO, 1 + Fraction(1, 10**6)),
                                                    (MU_HI, 1 - Fraction(1, 10**6)))]
    for _ in range(200):
        t = rng.choice((INTERSECTING, DISJOINT))
        bounds = [Fraction(0) if rng.random() < 0.2
                  else Fraction(rng.randint(1, 999), 100) * Fraction(10) ** rng.randint(-5, 14)
                  for _ in range(rng.randint(1, 3))]
        cliques = CliqueList((rng.randint(1, 6), {t: b}) for b in bounds)
        p = Fraction(0) if rng.random() < 0.1 else Fraction(1, rng.randint(1, 10**rng.randint(1, 25)))
        systems.append(({t: p}, {t: cliques}))
    return systems


def exact_slope(cliques, mu: Fraction) -> Fraction:
    """d/d log(mu) of the log margin: 1 - sum count * mu b / (1 + mu b)."""
    return 1 - sum(count * mu * b / (1 + mu * b) for count, bounds in cliques for b in bounds.values())


def test_newton_search_against_the_golden_reference():
    lo, hi = lll._log(MU_LO), lll._log(MU_HI)
    # the two edge slopes, the start, then no more points than a bisection
    # of the box to _LOG_TOL takes
    cap = 3 + math.ceil(math.log2((hi - lo) / lll._LOG_TOL))
    grid = earlier_mu_grid()
    faces = {"below": 0, "inside": 0, "above": 0}
    for probs, profiles in one_weight_systems():
        (cliques,) = profiles.values()
        expected = reference_search(probs, profiles)
        params, cert = optimize_mu(probs, profiles)
        (mu,) = params.values()
        assert cert.holds == expected.holds
        assert cert.margin >= expected.margin * (1 - Fraction(1, 10**9))
        # the log margin is concave in log mu, so the grid's best point is
        # among the three on each side of the optimum
        near = bisect.bisect(grid, mu)
        for w in grid[max(near - 3, 0):near + 3]:
            assert cert.margin >= check_cluster_clique(probs, profiles, w).margin
        face = ("below" if exact_slope(cliques, MU_LO) <= 0
                else "above" if exact_slope(cliques, MU_HI) >= 0 else "inside")
        faces[face] += 1
        assert (mu == MU_LO, mu == MU_HI) == (face == "below", face == "above")
        assert MU_LO <= mu <= MU_HI
        assert cert.search["evaluations"] <= cap
    assert min(faces.values()) >= 20, faces


# Verdict and float margin of the earlier grid-scan search (100-bit scan,
# then coordinate refinement to relative step 1e-4) on threshold cells.
EARLIER_SEARCH = [
    ("thm7", 1, 100, True, 2.417756869712277),
    ("thm7", 1, 316, True, 1.314662354067221),
    ("thm7", 1, 1000, True, 1.3263609988441183),
    ("thm7", 1, 3162, False, 0.009098298607962753),
    ("thm7", 1, 10**4, False, 4.401265034528415e-15),
    ("thm7", 1, 10**5, False, 4.590713283305231e-43),
    ("thm7", 2, 100, True, 970200000.0),
    ("thm7", 2, 316, True, 1.9628706678813719),
    ("thm7", 2, 1000, True, 1.5702253906503558),
    ("thm7", 2, 3162, False, 0.01063411227684695),
    ("thm7", 2, 10**4, False, 4.401265034528415e-15),
    ("thm7", 2, 10**5, False, 4.590713283305231e-43),
    ("cor4", 1, 100, True, 1.0940000559998897),
    ("cor4", 1, 316, True, 1.0015044244405624),
    ("cor4", 1, 1000, True, 1.0128126684903673),
    ("cor4", 1, 3162, True, 1.0007353243273192),
    ("cor4", 1, 10**4, True, 1.000989527907217),
    ("cor4", 1, 10**5, False, 1.0150616598619316e-08),
    ("cor4", 2, 100, True, 1.0940000559998897),
    ("cor4", 2, 316, True, 1.168421827372133),
    ("cor4", 2, 1000, True, 1.0128126684903673),
    ("cor4", 2, 3162, True, 1.007883433651356),
    ("cor4", 2, 10**4, True, 1.0054984897430914),
    ("cor4", 2, 10**5, False, 1.0150616598619316e-08),
]


# Weights and sha256 of margin_exact of the search at delta = 2 on threshold
# cells: the thm7 rows as the golden-section search gave them while it still
# had separate one-weight and two-weight paths, the cor4 rows as the Newton
# search gives them.
PINNED_SEARCH = [
    ("thm7", 1000, True,
     {"mu_int": "2395434866285313/604462909807314587353088",
      "mu_dis": "6684659058681503/1237940039285380274899124224"},
     "6083666b3ef7e2e00d0f27b3c3daec4657b537bc7b416a477950c131812b7383"),
    ("thm7", 10**4, False,
     {"mu_int": "1/1000000000000", "mu_dis": "1/1000000000000"},
     "ac52d6239b67f4c307db54425002f90c77eb75ae5ed440a6c8a59238d8dab2ef"),
    ("cor4", 1000, True,
     {"mu": "3667078653243035/1208925819614629174706176"},
     "d27eb5d969cfebb0d6cd6c81da405894dd1a6ef6c4e55f9f0d18cd013575d11c"),
    ("cor4", 10**4, True,
     {"mu": "7435818892912607/2475880078570760549798248448"},
     "612e43e4d37d8ea957f76172a0d45f89af1c902a778657e9aeb07e6d7ba73922"),
]


@pytest.mark.parametrize("theorem, n, holds, weights, margin_sha256", PINNED_SEARCH)
def test_search_is_pinned(theorem, n, holds, weights, margin_sha256):
    cell = rainbow_cell if theorem == "thm7" else proper_cell
    params, cert = optimize_mu(*cell(n, 2, threshold(theorem, n, delta=2)))
    assert cert.holds == holds
    assert params == {name: Fraction(w) for name, w in weights.items()}
    margin_exact = cert.to_json()["margin_exact"]
    assert hashlib.sha256(margin_exact.encode()).hexdigest() == margin_sha256


@pytest.mark.parametrize("theorem, delta, n, holds, margin", EARLIER_SEARCH)
def test_search_matches_earlier_verdicts(theorem, delta, n, holds, margin):
    k = threshold(theorem, n, delta=delta)
    cell = rainbow_cell if theorem == "thm7" else proper_cell
    params, cert = optimize_mu(*cell(n, delta, k))
    assert cert.holds == holds
    assert float(cert.margin) >= margin * (1 - 1e-9)


class TestThreshold:
    def test_thm7_examples(self):
        assert threshold("thm7", 1020, delta=2) == 5
        assert threshold("thm7", 203, delta=1) == 3

    def test_thm3_c1000(self):
        stats = cherry_stats(cycle_graph(1000))
        expected = math.floor(Fraction(3125, 23328) * 998 / 6)
        assert threshold("thm3", 1000, stats=stats) == expected == 22

    def test_cor4(self):
        assert threshold("cor4", 1000, delta=2) == math.floor(Fraction(998 * 5, 112 * 4)) == 11

    def test_thm5(self):
        assert threshold("thm5", 640) == 10
        assert threshold("thm5", 63) == 0

    def test_thm2_monotone_search(self):
        n, delta = 10**6, 2
        k = threshold("thm2", n, delta=delta)
        lhs = lambda kk: 216 * (3 * kk + 2 * delta) ** 7 * (delta + 1) ** 20 * kk
        assert lhs(k) < n <= lhs(k + 1)
        # small delta, very large n: the bound becomes positive
        big = threshold("thm2", 10**14, delta=1)
        assert big >= 1 and lhs_d1(big) < 10**14 <= lhs_d1(big + 1)

    def test_thm2_bisection_matches_the_ascending_search(self):
        rng = random.Random(41)
        for delta in (0, 1, 2):
            lhs = lambda kk: 216 * (3 * kk + 2 * delta) ** 7 * (delta + 1) ** 20 * kk
            ns = [1, 2, 3, 10**6, 10**40]
            ns += [lhs(kk) + e for kk in (1, 2, 3, 17) for e in (-1, 0, 1)]
            ns += [rng.randrange(1, 10 ** rng.randint(1, 40)) for _ in range(25)]
            for n in ns:
                assert threshold("thm2", n, delta=delta) == ascending_thm2(n, delta), (n, delta)

    def test_thm2_huge_n_is_fast(self):
        n = 10**100
        start = time.perf_counter()
        k = threshold("thm2", n, delta=0)
        assert time.perf_counter() - start < 0.1
        lhs = lambda kk: 216 * (3 * kk) ** 7 * kk
        assert k > 0 and lhs(k) < n <= lhs(k + 1)

    def test_delta_zero_rejected(self):
        for theorem in ("thm7", "cor4"):
            with pytest.raises(DomainError):
                threshold(theorem, 100, delta=0)
        with pytest.raises(DomainError):
            threshold("thm2", 100, delta=-1)

    def test_thm3_from_delta_is_the_worst_case_rates(self):
        for n, delta in ((1000, 2), (5000, 1), (777, 3)):
            q, p = Fraction(3, 2) * delta * delta, Fraction(delta * delta, 2)
            assert threshold("thm3", n, delta=delta) == threshold("thm3", n, q=q, p=p)

    def test_unknown_theorem_rejected(self):
        with pytest.raises(DomainError):
            threshold("thm9", 1000, delta=2)

    def test_no_cherries_rejected(self):
        with pytest.raises(DomainError):
            threshold("thm3", 100, q=0, p=0)

    @pytest.mark.parametrize("rates", [{"delta": -2}, {"q": -1, "p": 1}, {"q": 3, "p": -1}])
    def test_thm3_negative_degree_or_rates_rejected(self, rates):
        with pytest.raises(DomainError):
            threshold("thm3", 1000, **rates)
        with pytest.raises(DomainError):
            certificate_inputs("thm3", 1000, 11, **rates)
        with pytest.raises(DomainError):
            verify_paper_inequalities("thm3", n=1000, k=11, **rates)

    def test_cor4_vs_thm3_rounding(self):
        # the analytic constant is ~22.39488 against the rounded 22.4, so
        # within (n - 2) <= ~9.7e4 * delta^2 the floors differ by at most 1
        for delta in (1, 2, 3, 5):
            for n in range(3, 2000, 37):
                q = Fraction(3, 2) * delta * delta
                p = Fraction(1, 2) * delta * delta
                t3 = threshold("thm3", n, q=q, p=p)
                c4 = threshold("cor4", n, delta=delta)
                assert c4 <= t3 <= c4 + 1


def lhs_d1(kk: int) -> int:
    return 216 * (3 * kk + 2) ** 7 * 2**20 * kk


def ascending_thm2(n: int, d: int) -> int:
    """The linear search threshold("thm2") ran before the bisection."""
    k = 0
    while k < n:
        nxt = k + 1
        if 216 * (3 * nxt + 2 * d) ** 7 * (d + 1) ** 20 * nxt < n:
            k = nxt
        else:
            break
    return k


class TestVerifyPaperInequalities:
    def test_thm3_chain(self):
        stats = cherry_stats(cycle_graph(1000))
        report = verify_paper_inequalities("thm3", n=1000, k=22, stats=stats)
        assert report["ok"]
        assert all(step["satisfied"] for step in report["steps"])
        assert report["direct_certificate"]["verdict"] == "holds"

    def test_thm3_k_above_bound_rejected(self):
        stats = cherry_stats(cycle_graph(1000))
        with pytest.raises(DomainError):
            verify_paper_inequalities("thm3", n=1000, k=23, stats=stats)

    def test_thm7_boundary(self):
        ok77 = verify_paper_inequalities("thm7", n=77, k=1, delta=1)
        assert ok77["ok"]
        bad76 = verify_paper_inequalities("thm7", n=76, k=1, delta=1)
        assert not bad76["ok"]
        failing = [s["label"] for s in bad76["steps"] if not s["satisfied"]]
        assert failing == ["p_dis boundary"]
        # the direct certificate at n=76, k=1 nevertheless holds: only the
        # sufficient chain breaks below the boundary
        assert bad76["direct_certificate"]["verdict"] == "holds"

    def test_thm7_product_factor(self):
        report = verify_paper_inequalities(
            "thm7", n=500, k=Fraction(500, 51 * 9), delta=3
        )
        assert report["ok"]
        assert abs(report["product_factor"] - 1.3053) < 1e-3

    def test_thm7_k_above_bound_rejected(self):
        with pytest.raises(DomainError):
            verify_paper_inequalities("thm7", n=500, k=3, delta=2)

    def test_bad_args(self):
        with pytest.raises(DomainError):
            verify_paper_inequalities("thm5", n=500, k=1, delta=2)
        for setting in ("thm3", "thm7"):
            with pytest.raises(DomainError):
                verify_paper_inequalities(setting, n=500, k=-1, delta=2)

    @pytest.mark.parametrize("setting", ["thm3", "thm7"])
    def test_threshold_is_the_largest_k_the_chain_accepts(self, setting):
        graphs = (path_graph(3), cycle_graph(5), complete_graph(4))
        rules = [{"delta": d} for d in (1, 2, 3)] + [{"stats": cherry_stats(g)} for g in graphs]
        if setting == "thm3":
            rules += [{"q": q, "p": p} for q, p in ((1, 0), (0, 1), (6, 2), ("7/2", "1/3"))]
        for n in (4, 5, 76, 77, 100, 203, 1000, 1020, 10**4, 10**6):
            for rule in rules:
                k = threshold(setting, n, **rule)
                verify_paper_inequalities(setting, n=n, k=k, **rule)
                with pytest.raises(DomainError, match="exceeds"):
                    verify_paper_inequalities(setting, n=n, k=k + 1, **rule)

    def test_thm3_regular_case_recovers_rounded_constant(self):
        # q = (3/2)d^2, p = d^2/2 turns the threshold into
        # (n-2) / (22.39488 d^2); 22.4 is its conservative rounding
        constant = 3 / float(Fraction(3125, 23328))
        assert abs(constant - 22.39488) < 1e-5
        assert constant < 22.4
        for n, delta in ((1000, 2), (5000, 1), (777, 3)):
            q = Fraction(3, 2) * delta * delta
            p = Fraction(1, 2) * delta * delta
            bound = Fraction(3125, 23328) * (n - 2) / (q + 3 * p)
            assert bound >= Fraction(n - 2) / Fraction(224 * delta * delta, 10)


def falling(n: int, r: int) -> int:
    return math.prod(range(n - r + 1, n + 1))


def thm7_by_hand(n, delta, k):
    """The thm7 chain written out from the paper: the four clique bounds,
    the graph-side and image-side factors, the boundary steps and the
    two-type certificate at the reference weights."""
    mu_int, mu_dis = Fraction(7, 5 * n) ** 3, Fraction(7, 5 * n) ** 4
    d2 = Fraction(delta * delta)
    g_int = Fraction(3, 2) * d2 * n * n * k
    g_dis = d2 * n**3 * k
    kn_int = d2 * n * n * k
    kn_dis = d2 * n**3 * k
    factor_g = 1 + g_int * mu_int + g_dis * mu_dis
    factor_kn = 1 + kn_int * mu_int + kn_dis * mu_dis
    product = factor_g * factor_kn
    p_int, p_dis = Fraction(1, falling(n, 3)), Fraction(1, falling(n, 4))
    steps = [
        (product, Fraction(50, 51) * Fraction(14, 10)),
        (p_dis, Fraction(51, 50 * n) ** 4),
        (p_int, Fraction(51, 50 * n) ** 3),
    ]
    # each event vertex has a graph-side and an image-side mixed clique
    direct = [(p_int, mu_int / product**3), (p_dis, mu_dis / product**4)]
    return product, steps, direct


def thm3_by_hand(n, q, p, k):
    """The thm3 chain written out from the paper: the cubic product of the
    three graph-side and three image-side cliques."""
    mu = Fraction(6, 5) ** 6 / falling(n, 3)
    n2 = falling(n, 2)
    product = (1 + q * n2 * k * mu) ** 3 * (1 + 3 * p * n2 * k * mu) ** 3
    p3 = Fraction(1, falling(n, 3))
    steps = [
        (k * mu, Fraction(2, 5) / (n2 * (q + 3 * p))),
        (product, Fraction(6, 5) ** 6),
        (p3, mu / product),
    ]
    return product, steps, [(p3, mu / product)]


def assert_report_matches(report, product, steps, direct):
    assert report["product_factor"] == float(product)
    assert [s["satisfied"] for s in report["steps"]] == [lhs <= rhs for lhs, rhs in steps]
    assert [(s["lhs"], s["rhs"]) for s in report["steps"]] == [
        (float(lhs), float(rhs)) for lhs, rhs in steps
    ]
    cert = report["direct_certificate"]
    assert [(c["lhs"], c["rhs"], c["satisfied"]) for c in cert["conditions"]] == [
        (float(lhs), float(rhs), lhs <= rhs) for lhs, rhs in direct
    ]
    assert cert["verdict"] == ("holds" if all(lhs <= rhs for lhs, rhs in direct) else "fails")
    assert cert["margin_exact"] == str(min(rhs / lhs for lhs, rhs in direct))


REFERENCE_NS = sorted({76, 77, 100, 204} | {round(76 * (10**6 / 76) ** (i / 9)) for i in range(10)})


def reference_ks(bound):
    return [k for k in (Fraction(math.floor(bound)), Fraction(math.floor(bound) - 1), bound) if k >= 0]


class TestReferenceArithmetic:
    """verify_paper_inequalities against the paper's formulas, kept here as
    an independent reference."""

    @pytest.mark.parametrize("delta", [1, 2, 3])
    def test_thm7(self, delta):
        for n in REFERENCE_NS:
            for k in reference_ks(Fraction(n, 51 * delta * delta)):
                report = verify_paper_inequalities("thm7", n=n, k=k, delta=delta)
                assert_report_matches(report, *thm7_by_hand(n, delta, k))
                assert report["ok"] == (n >= 77)

    @pytest.mark.parametrize("delta", [1, 2, 3])
    def test_thm3(self, delta):
        q, p = Fraction(3, 2) * delta * delta, Fraction(delta * delta, 2)
        for n in REFERENCE_NS:
            for k in reference_ks(Fraction(3125, 23328) * (n - 2) / (q + 3 * p)):
                report = verify_paper_inequalities("thm3", n=n, k=k, q=q, p=p)
                assert_report_matches(report, *thm3_by_hand(n, q, p, k))
                assert report["ok"]
                assert verify_paper_inequalities("thm3", n=n, k=k, delta=delta) == report

    def test_thm3_with_stats(self):
        for g in (cycle_graph(1000), complete_graph(4)):
            stats = cherry_stats(g)
            n = 1000
            q, p = Fraction(stats.max_cherries_per_vertex), Fraction(stats.total_cherries, n)
            k = threshold("thm3", n, stats=stats)
            report = verify_paper_inequalities("thm3", n=n, k=k, stats=stats)
            assert_report_matches(report, *thm3_by_hand(n, q, p, Fraction(k)))


class TestCertificateInputs:
    def test_thm3_matches_the_events_profiles(self):
        stats = cherry_stats(cycle_graph(1000))
        prob, profile = certificate_inputs("thm3", 1000, 22, stats=stats)
        assert prob == Fraction(1, falling(1000, 3))
        _, q, p = graph_rates(1000, stats=stats)
        assert profile == proper_profile_from_rates(q, p, 1000, 22)
        q, p = Fraction(3, 2) * 4, Fraction(4, 2)
        assert certificate_inputs("thm3", 1000, 11, delta=2) == (
            prob, proper_profile_from_rates(q, p, 1000, 11))

    def test_thm7_matches_the_events_profiles(self):
        # the statistics supply the maximum degree
        inputs = certificate_inputs("thm7", 204, 4, stats=cherry_stats(cycle_graph(5)))
        assert inputs == rainbow_cell(204, 2, 4)

    @pytest.mark.parametrize("setting, n, kwargs", [
        ("thm3", 2, {"delta": 1}),
        ("thm3", 100, {}),
        ("thm3", 100, {"q": 1}),
        ("thm7", 3, {"delta": 1}),
        ("thm7", 100, {}),
        ("thm7", 100, {"delta": 0}),
        ("thm5", 100, {"delta": 1}),
    ])
    def test_rejected(self, setting, n, kwargs):
        with pytest.raises(DomainError):
            certificate_inputs(setting, n, 1, **kwargs)


# Two sources of a graph's degree and rates, or half of (q, p): each rule
# used to take one and drop the others without a word.
C5_STATS = cherry_stats(cycle_graph(5))
CLASHING_SOURCES = [
    {"delta": 2, "stats": C5_STATS},
    {"stats": C5_STATS, "q": 3, "p": 1},
    {"stats": C5_STATS, "p": 1},
    {"delta": 2, "q": 3, "p": 1},
    {"delta": 2, "q": 3},
    {"q": 3},
    {"p": 1},
]


class TestOneSource:
    @pytest.mark.parametrize("kwargs", CLASHING_SOURCES)
    @pytest.mark.parametrize("theorem", lll.THEOREMS)
    def test_threshold(self, theorem, kwargs):
        with pytest.raises(DomainError):
            threshold(theorem, 1020, **kwargs)

    @pytest.mark.parametrize("kwargs", CLASHING_SOURCES)
    @pytest.mark.parametrize("setting", ["thm3", "thm7"])
    def test_certificate_inputs(self, setting, kwargs):
        with pytest.raises(DomainError):
            certificate_inputs(setting, 1020, 1, **kwargs)

    @pytest.mark.parametrize("kwargs", CLASHING_SOURCES)
    @pytest.mark.parametrize("setting", ["thm3", "thm7"])
    def test_verify_paper_inequalities(self, setting, kwargs):
        with pytest.raises(DomainError):
            verify_paper_inequalities(setting, n=1020, k=1, **kwargs)

    def test_c5_with_a_smaller_delta_is_not_certified(self):
        # C_5 has maximum degree 2, so k = 20 is beyond the thm7 bound 1020/204
        with pytest.raises(DomainError, match="k=20 exceeds the thm7 bound 5"):
            verify_paper_inequalities("thm7", n=1020, k=20, stats=C5_STATS)
        with pytest.raises(DomainError, match="one source of the graph"):
            verify_paper_inequalities("thm7", n=1020, k=20, stats=C5_STATS, delta=1)

    def test_thm5_reads_no_source(self):
        for kwargs in ({}, {"delta": -1}, {"stats": C5_STATS}, {"q": -1, "p": 1}):
            assert threshold("thm5", 640, **kwargs) == 10


@pytest.mark.parametrize("bad", ["abc", "1/0", float("nan"), float("inf"), float("-inf"), None])
def test_bad_rationals_raise_domain_error(bad):
    with pytest.raises(DomainError):
        proper_profile_from_rates(bad, 1, 5, 1)
    with pytest.raises(DomainError):
        check_cluster_clique(Fraction(1, 60), single_clique_profile(2), bad)
    with pytest.raises(DomainError):
        verify_paper_inequalities("thm7", n=100, k=bad, delta=1)
