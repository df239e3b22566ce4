"""Acceptance suite: one test per criterion.

Each test accumulates violations, prints a single PASS/FAIL line with its
elapsed time against the stated budget, and only then asserts.  Run with
`pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import statistics
import time
from fractions import Fraction

from conftest import (
    adjacency_from_edges,
    constant_colouring,
    count_injections_in_event,
    random_clique_cover,
    random_colouring,
    random_graph,
)
from rainbowcopy import (
    Graph,
    complete_graph,
    cycle_graph,
    enumerate_bad_events,
    event_probability,
    exists_copy,
    falling_factorial,
    find_copy,
    gen_k_bounded,
    gen_locally_k_bounded,
    independent_set_polynomial,
    is_valid_embedding,
    optimize_mu,
    path_graph,
    threshold,
    verify_clique_bounds,
    verify_paper_inequalities,
    violated_events,
)
from rainbowcopy.events import DISJOINT, INTERSECTING, clique_cover_rainbow


def finish(num: int, label: str, problems: list, elapsed: float, limit: float) -> None:
    if elapsed >= limit:
        problems = problems + [f"elapsed {elapsed:.3f}s exceeds the {limit}s budget"]
    status = "FAIL" if problems else "PASS"
    print(
        f"criterion {num:02d} {status} ({elapsed:.3f}s / limit {limit}s): {label}",
        flush=True,
    )
    assert not problems, problems[:5]


def test_criterion_01_rounded_threshold_constant():
    start = time.perf_counter()
    problems = []
    # with q = (3/2) d^2 and p = d^2/2 the admissible bound is
    # (n - 2) * 3125 / (69984 d^2); 69984/3125 = 22.39488 rounds to 22.4
    constant = Fraction(69984, 3125)
    if abs(float(constant) - 22.394) >= 1e-3 or constant >= Fraction(224, 10):
        problems.append(f"constant came out as {float(constant)}")
    n_values = list(range(3, 1000, 7)) + [10**3, 4 * 10**3, 10**4, 10**5, 5 * 10**5, 10**6]
    for n in n_values:
        for delta in range(1, 21):
            q = Fraction(3, 2) * delta * delta
            p = Fraction(1, 2) * delta * delta
            t3 = threshold("thm3", n, q=q, p=p)
            if t3 != (3125 * (n - 2)) // (69984 * delta * delta):
                problems.append(f"thm3 mismatch at n={n}, delta={delta}")
            if threshold("cor4", n, delta=delta) > t3:
                problems.append(f"cor4 above thm3 at n={n}, delta={delta}")
    finish(1, f"threshold constant 22.39488 over {len(n_values) * 20} cases", problems, time.perf_counter() - start, 1.0)


def test_criterion_02_boundary_is_77():
    start = time.perf_counter()
    # smallest n with (n-1)(n-2)(n-3) * 51^4 >= 50^4 * n^3, exact integers
    hits = [
        n for n in range(4, 120)
        if (n - 1) * (n - 2) * (n - 3) * 51**4 >= 50**4 * n**3
    ]
    scan_elapsed = time.perf_counter() - start
    problems = []
    if not hits or hits[0] != 77 or 76 in hits:
        problems.append(f"boundary scan produced {hits[:3]}")
    # cross-check via the reported chain step (outside the 1ms scan budget)
    if not verify_paper_inequalities("thm7", n=77, k=1, delta=1)["ok"]:
        problems.append("chain rejects n = 77")
    if verify_paper_inequalities("thm7", n=76, k=1, delta=1)["ok"]:
        problems.append("chain accepts n = 76")
    finish(2, "minimal boundary n = 77 (exact integers)", problems, scan_elapsed, 0.001)


def test_criterion_03_rainbow_certificate_sweep():
    start = time.perf_counter()
    problems = []
    cap = float(Fraction(50, 51) * Fraction(14, 10))
    for n in range(77, 1001):
        for delta in range(1, 11):
            k = Fraction(n, 51 * delta * delta)
            rep = verify_paper_inequalities("thm7", n=n, k=k, delta=delta)
            if not rep["ok"]:
                problems.append(f"chain fails at n={n}, delta={delta}")
            if abs(rep["product_factor"] - 1.3053) >= 1e-3 or rep["product_factor"] > cap:
                problems.append(f"product factor {rep['product_factor']} at n={n}")
    finish(3, "rainbow chain holds for n in 77..1000, max degree 1..10", problems, time.perf_counter() - start, 5.0)


def test_criterion_04_proper_certificate_random_tuples():
    start = time.perf_counter()
    problems = []
    rng = random.Random(404)
    checked = 0
    while checked < 200:
        n = rng.randint(100, 4000)
        q = Fraction(rng.randint(0, 60))
        p = Fraction(rng.randint(0, 80), rng.choice([1, 2, 4, 5]))
        if q + 3 * p == 0:
            continue
        k = threshold("thm3", n, q=q, p=p)
        rep = verify_paper_inequalities("thm3", n=n, k=k, q=q, p=p)
        if not rep["ok"]:
            problems.append(f"chain fails at n={n}, q={q}, p={p}, k={k}")
        kmu = [s for s in rep["steps"] if s["label"] == "k*mu bound"]
        if not kmu or not kmu[0]["satisfied"]:
            problems.append(f"k*mu bound fails at n={n}, q={q}, p={p}")
        checked += 1
    finish(4, "proper certificate holds for 200 random (n, p, q) at the bound", problems, time.perf_counter() - start, 5.0)


def test_criterion_05_improved_rainbow_constant_42():
    start = time.perf_counter()
    problems = []
    for n in (100, 200, 500, 1000):
        delta = 1
        k = Fraction(n, 42 * delta * delta)
        profiles = {
            INTERSECTING: clique_cover_rainbow(delta, n, k, INTERSECTING),
            DISJOINT: clique_cover_rainbow(delta, n, k, DISJOINT),
        }
        probs = {
            INTERSECTING: Fraction(1, falling_factorial(n, 3)),
            DISJOINT: Fraction(1, falling_factorial(n, 4)),
        }
        params, cert = optimize_mu(probs, profiles)
        if not cert.holds or cert.margin < 1:
            problems.append(f"search found no certificate at n={n}")
        if params["mu_int"] <= 0 or params["mu_dis"] <= 0:
            problems.append(f"nonpositive weights at n={n}")
    finish(5, "searched weights certify k = n/42 for n in {100, 200, 500, 1000}", problems, time.perf_counter() - start, 30.0)


def test_criterion_06_probability_formula_by_enumeration():
    start = time.perf_counter()
    problems = []
    rng = random.Random(606)
    graphs = [
        path_graph(3),
        path_graph(4),
        cycle_graph(4),
        Graph.from_edges(4, [(0, 1), (2, 3)]),
        complete_graph(4),
        path_graph(5),
        cycle_graph(5),
    ]
    checked = 0
    for g in graphs:
        for n in range(max(4, g.n_vertices), 8):
            for chi in (constant_colouring(n), gen_k_bounded(n, 2, 1000 + n)):
                events = enumerate_bad_events(g, chi, "rainbow")
                if not events:
                    continue
                total = falling_factorial(n, g.n_vertices)
                for ev in rng.sample(events, min(100, len(events))):
                    count = count_injections_in_event(ev, g.n_vertices, n)
                    if Fraction(count, total) != event_probability(ev.type_tag, n):
                        problems.append(f"mismatch for {ev} at n={n}")
                    checked += 1
    if checked < 2000:
        problems.append(f"only {checked} events checked")
    finish(6, f"event probabilities exact by enumeration ({checked} events)", problems, time.perf_counter() - start, 30.0)


def test_criterion_07_clique_cover_soundness():
    start = time.perf_counter()
    problems = []
    rng = random.Random(707)
    done = 0
    while done < 50:
        n = rng.randint(4, 7)
        g = random_graph(rng, rng.randint(3, n), edge_prob=0.55, max_degree=3)
        if not g.edges:
            continue
        gen = gen_k_bounded if rng.random() < 0.5 else gen_locally_k_bounded
        chi = gen(n, rng.randint(1, 2), rng.randrange(10**6))
        mode = rng.choice(["proper", "rainbow"])
        if len(enumerate_bad_events(g, chi, mode)) > 350:
            continue
        rep = verify_clique_bounds(g, chi, mode)
        if not rep["ok"] or not rep["cliques_are_cliques"]:
            problems.append(f"instance {done}: {rep['violations'][:2]}")
        done += 1
    finish(7, "clique covers sound on 50 random instances", problems, time.perf_counter() - start, 60.0)


def test_criterion_08_clique_product_dominance():
    start = time.perf_counter()
    problems = []
    mus = (Fraction(1, 100), Fraction(1, 10), Fraction(1), Fraction(10))
    # (seed, instances, largest n, edge probability)
    for seed, trials, n_max, edge_prob in ((808, 200, 15, 0.35), (31, 30, 10, 0.45)):
        rng = random.Random(seed)
        for trial in range(trials):
            n = rng.randint(2, n_max)
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob
            ]
            adj = adjacency_from_edges(n, edges)
            i = rng.randrange(n)
            closed = sorted(adj[i] | {i})
            cover = random_clique_cover(rng, adj, closed)
            for mu in mus:
                product = Fraction(1)
                for clique in cover:
                    product *= 1 + mu * len(clique)
                if product < independent_set_polynomial(adj, i, mu):
                    problems.append(f"violated at seed {seed}, trial {trial}, mu={mu}")
    finish(8, "clique products dominate the independent-set polynomial", problems, time.perf_counter() - start, 10.0)


def test_criterion_09_sampler_end_to_end():
    start = time.perf_counter()
    problems = []
    timings = []

    def run(g, chi, mode, seed):
        t0 = time.perf_counter()
        result = find_copy(g, chi, mode, seed=seed)
        timings.append(time.perf_counter() - t0)
        if not result.success:
            problems.append(f"{mode} run failed at seed {seed}")
        elif not is_valid_embedding(result.embedding, g, chi) or violated_events(
            result.embedding, g, chi, mode
        ):
            problems.append(f"{mode} result invalid at seed {seed}")

    g_rainbow = cycle_graph(500)
    for seed in range(20):
        run(g_rainbow, gen_k_bounded(500, 2, 9000 + seed), "rainbow", seed)
    g_proper = cycle_graph(200)
    for seed in range(20):
        run(g_proper, gen_locally_k_bounded(200, 3, 7000 + seed), "proper", seed)

    median = statistics.median(timings)
    if median >= 2.0:
        problems.append(f"median wall time {median:.3f}s")
    finish(9, f"40/40 sampler runs valid, median wall {median * 1000:.1f}ms", problems, time.perf_counter() - start, 120.0)


def test_criterion_10_oracle_agreement():
    start = time.perf_counter()
    problems = []
    rng = random.Random(1010)
    nonexistent = 0
    for trial in range(500):
        n = rng.randint(4, 8)
        g = random_graph(rng, rng.randint(2, n), edge_prob=0.5)
        chi = random_colouring(rng, n, rng.randint(1, 4))
        mode = rng.choice(["proper", "rainbow"])
        possible = exists_copy(g, chi, mode) is not None
        nonexistent += not possible
        for seed in range(10):
            result = find_copy(g, chi, mode, seed=seed, max_resamples=120)
            if result.success and not possible:
                problems.append(f"trial {trial}: sampler succeeded on an impossible instance")
    if nonexistent < 50:
        problems.append(f"only {nonexistent} instances without a copy; pool too easy")
    finish(10, f"oracle agreement on 500 instances ({nonexistent} without any copy)", problems, time.perf_counter() - start, 120.0)


def test_criterion_11_thm2_much_weaker():
    start = time.perf_counter()
    problems = []
    n, delta = 10**6, 2
    # even k = 1 violates the strict inequality at these parameters
    if 216 * (3 + 2 * delta) ** 7 * (delta + 1) ** 20 * 1 < n:
        problems.append("k = 1 unexpectedly admissible under thm2")
    k2 = threshold("thm2", n, delta=delta)
    k4 = threshold("cor4", n, delta=delta)
    if k2 != 0:
        problems.append(f"thm2 threshold is {k2}, expected 0")
    if k4 != (5 * (n - 2)) // (112 * delta * delta) or k4 != 11160:
        problems.append(f"cor4 threshold is {k4}, expected 11160")
    if not k2 < k4:
        problems.append("thm2 not strictly below cor4")
    finish(11, f"thm2 gives k = {k2}, cor4 gives k = {k4} at n = 10^6", problems, time.perf_counter() - start, 1.0)
