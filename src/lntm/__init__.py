"""Historical payment-channel-network reconstruction and centrality metrics.

The pipeline: archived gossip messages are decoded (``codec``) and read
from framed archive files (``store``), folded up to a query instant into an
immutable network snapshot (``replay``), weighted by routing fees and
scored with exact betweenness centrality (``centrality``), and summarized
with Lorenz/Gini and rank statistics (``inequality``). ``cli`` wires it all
into batch commands.
"""

__version__ = "0.1.0"

from .codec import (
    ChannelAnnouncement,
    ChannelUpdate,
    CodecError,
    GossipMessage,
    NodeAnnouncement,
    NodeId,
    ShortChannelId,
    decode_message,
    encode_message,
)
from .store import (
    OrderedFeed,
    StoreRecord,
    deduplicate_and_order,
    read_store,
    write_store,
)
from .replay import (
    ChannelPolicy,
    NetworkSnapshot,
    RoutingView,
    replay,
    routing_view,
    snapshot_from_json,
    snapshot_to_json,
)
from .centrality import (
    CentralityReport,
    WeightedDigraph,
    betweenness,
    brute_force_betweenness,
    build_graph,
    fee_weight,
)
from .inequality import (
    LorenzSeries,
    RankTimeline,
    TopShare,
    gini_trend,
    lorenz,
    rank_timelines,
    top_share,
)
