"""Aggregate-tree memory for long multi-session conversations (arXiv 2406.06124).

A layered tree (`tree`) stores dialogue turns as leaves and aggregated
summaries above them. A query walks it (`traversal`: agent-driven, or BFS/DFS
with a sufficiency oracle) to pick the context for the reply (`pipeline`),
and `metrics` scores the replies.
"""

from .aggregation import (
    Aggregator,
    ConcatAggregator,
    LlmPersonaAggregator,
    TruncateAggregator,
    aggregator_from_spec,
    persona_prompt,
)
from .bench import dump_report, render_table, run_bench
from .episodes import (
    DialogueTurn,
    Episode,
    Session,
    convert_msc_record,
    final_exchange,
    load_episodes,
    parse_episode,
    save_episodes,
)
from .errors import (
    ActionParseError,
    ConfigurationError,
    ContractViolationError,
    DocumentParseError,
    HatError,
    InvalidParameterError,
    NotFoundError,
    ProtocolError,
    RemoteUnavailableError,
)
from .fixtures import planted_fact_episode, planted_fact_episodes
from .llm import (
    ChatReply,
    ChatRequest,
    HttpTransport,
    LlmClient,
    MockTransport,
    live_client,
    mock_client,
)
from .metrics import bleu_n, distinct_n, f1, score_pairs, tokenize
from .pipeline import (
    STRATEGIES,
    MemoryState,
    build_context,
    end_session,
    generate_response,
    ingest_episode,
    ingest_turn,
    ingest_turns,
    new_memory,
)
from .traversal import (
    Cursor,
    LlmAgent,
    LlmOracle,
    Outcome,
    TraversalAction,
    TraversalConfig,
    TraversalResult,
    apply_action,
    bfs_search,
    dfs_search,
    fallback_context,
    traverse,
)
from .tree import HatTree

__version__ = "0.1.0"
