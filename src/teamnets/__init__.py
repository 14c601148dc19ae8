"""teamnets: mine team chat and version-control artifacts into communication
networks, triad censuses, and socio-technical congruence scores."""

from .config import AnomalyThresholds, PipelineConfig, TeamConfig, load_config
from .errors import InputError, ValidationError
from .ingestion import (
    Diagnostics,
    Roster,
    Sprint,
    SprintCalendar,
    Week,
    parse_chat_edges,
    parse_feedback,
    parse_outcomes,
    parse_repo_weeks,
    parse_work_logs,
)
from .network import (
    CommunicationNetwork,
    window_network,
    write_edge_list,
)
from .report import (
    AnalysisReport,
    AnomalyFlag,
    CorrelationCell,
    TeamSummary,
    UTestSummary,
    detect_anomalies,
    emit,
    load_report,
    run_pipeline,
)
from .stats import (
    CorrelationResult,
    TrendLine,
    UTestResult,
    mann_whitney_u,
    ols,
    p_stars,
    pearson,
    t_sf,
)
from .stc import (
    StcScore,
    YearSummary,
    coordination_requirements,
    stc_scores,
    weekly_team_scores,
    year_summary,
)
from .triad import (
    census_closed_form,
    mean_weekly_relative_census,
    relative_census,
    triad_census,
)

__version__ = "0.1.0"
