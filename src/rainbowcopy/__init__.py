"""Local-lemma certificates and randomized search for properly coloured and
rainbow copies of bounded-degree graphs in edge-coloured complete graphs."""

from .colouring import (
    Boundedness,
    EdgeColouring,
    boundedness,
    gen_k_bounded,
    gen_locally_k_bounded,
    load_colouring,
    save_colouring,
)
from .errors import CapacityError, DomainError, FormatError
from .events import (
    DISJOINT,
    INTERSECTING,
    CanonicalEvent,
    NeighbourhoodProfile,
    clique_cover_rainbow,
    conflict,
    enumerate_bad_events,
    event_probability,
    graph_rates,
    intersection_graph,
    proper_profile_from_rates,
    verify_clique_bounds,
)
from .graph import (
    CherryStats,
    Graph,
    cherry_stats,
    complete_graph,
    cycle_graph,
    falling_factorial,
    load_graph,
    path_graph,
)
from .lll import (
    LLLCertificate,
    certificate_inputs,
    check_cluster_clique,
    check_cluster_exact,
    independent_set_polynomial,
    optimize_mu,
    paper_mu_proper,
    paper_mu_rainbow,
    threshold,
    verify_paper_inequalities,
)
from .oracle import count_valid_embeddings, exists_copy
from .sampler import (
    Embedding,
    FindResult,
    find_copy,
    is_valid_embedding,
    random_injection,
    violated_events,
)

__version__ = "0.1.0"
