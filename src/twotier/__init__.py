"""twotier: two-level analysis of team-participation networks.

Pipeline stages: ingest event logs into time-framed weighted graphs, rank
members by frame-by-frame weighted shell decomposition, split off the
backbone, track community evolution in both sub-networks, and abstract each
frame to the community level to measure core-periphery structure.
"""

from .abstraction import (
    AbstractGraph,
    abstract,
    betweenness,
    density,
    edge_class,
    edge_weight_shares,
    frame_metrics,
)
from .community import (
    FramePartitionSet,
    Partition,
    detect,
    detect_all,
    modularity,
)
from .evolution import (
    ATTRIBUTE,
    CommunityRef,
    EventKind,
    EvolutionEvent,
    Timeline,
    classify,
    event_shares,
    match,
)
from .graph import (
    AGGREGATE_FRAME,
    DynamicNetwork,
    FrameGraph,
    aggregate,
    closeness_all,
)
from .ingest import (
    ActivityType,
    FrameSpec,
    LinkRecord,
    LogParseError,
    Participation,
    TeamRecord,
    build_frames,
    expand_teams,
    load_log,
    parse_log,
    team_participations,
    typed_network,
)
from .kshell import (
    BackboneSplit,
    InfluenceTable,
    ShellAssignment,
    coverage,
    coverage_curve,
    dynamic_influence,
    select_backbone,
    weighted_degree,
    weighted_degree_value,
    wks_decompose,
)
from .report import PipelineConfig, PipelineResult, member_profiles, run_pipeline
from .synth import (
    GroundTruth,
    SynthConfig,
    generate,
    intermittent_activity_records,
    large_preset,
    planted_partition,
    scripted_event_timeline,
    small_preset,
)

__version__ = "0.1.0"

__all__ = [
    "AGGREGATE_FRAME",
    "ATTRIBUTE",
    "AbstractGraph",
    "ActivityType",
    "BackboneSplit",
    "CommunityRef",
    "DynamicNetwork",
    "EventKind",
    "EvolutionEvent",
    "FrameGraph",
    "FramePartitionSet",
    "FrameSpec",
    "GroundTruth",
    "InfluenceTable",
    "LinkRecord",
    "LogParseError",
    "Participation",
    "Partition",
    "PipelineConfig",
    "PipelineResult",
    "ShellAssignment",
    "SynthConfig",
    "TeamRecord",
    "Timeline",
    "abstract",
    "aggregate",
    "betweenness",
    "build_frames",
    "classify",
    "closeness_all",
    "coverage",
    "coverage_curve",
    "density",
    "detect",
    "detect_all",
    "dynamic_influence",
    "edge_class",
    "edge_weight_shares",
    "event_shares",
    "expand_teams",
    "frame_metrics",
    "generate",
    "intermittent_activity_records",
    "load_log",
    "match",
    "member_profiles",
    "modularity",
    "large_preset",
    "parse_log",
    "planted_partition",
    "run_pipeline",
    "scripted_event_timeline",
    "select_backbone",
    "small_preset",
    "team_participations",
    "typed_network",
    "weighted_degree",
    "weighted_degree_value",
    "wks_decompose",
]
