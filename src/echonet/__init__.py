"""echonet: analytics for polarized user-page interaction networks.

Builds bipartite user-page graphs from interaction logs, projects them onto
weighted page graphs, detects communities with four algorithms, validates
partitions against labels and random baselines, and measures per-user
polarization, selective exposure, and the temporal growth and cohesion of the
communities. A seeded planted-polarization generator provides ground truth.
"""

__version__ = "0.1.0"

from .community import (
    ALGORITHMS,
    ConvergenceWarning,
    Dendrogram,
    fastgreedy,
    label_propagation,
    louvain,
    modularity,
    walktrap,
)
from .compare import (
    DegenerateDataWarning,
    cohen_kappa,
    kappa_from_confusion,
    rand_index,
    random_partition,
)
from .graphs import (
    BipartiteGraph,
    Partition,
    ProjectionGraph,
    build_bipartite,
    connected_components,
    project,
)
from .ingest import (
    Dataset,
    InteractionRecord,
    ParseError,
    SummaryTable,
    dataset_summary,
    filter_dataset,
    parse_records,
    read_labels,
    serialize_records,
    write_labels,
)
from .metrics import (
    Histogram,
    PolarizationProfile,
    UserEngagement,
    community_page_stats,
    loess_fit,
    pages_per_window,
    polarization_histogram,
    two_largest_sides,
    user_engagement,
    user_polarization,
)
from .synth import PlantedTruth, SynthConfig, generate
from .temporal import (
    AnovaResult,
    AnovaTable,
    CohesionPoint,
    SeriesPoint,
    activity_series,
    cohesion_series,
    f_tail,
    manova_pillai,
    two_way_anova,
)
