"""Historical payment-channel-network reconstruction and centrality metrics.

The pipeline: archived gossip messages are decoded (``codec``) and read
from framed archive files (``store``), folded up to a query instant into an
immutable network snapshot (``replay``), weighted by routing fees and
scored with exact betweenness centrality (``centrality``), and summarized
with Lorenz/Gini and rank statistics (``inequality``). ``cli`` wires it all
into batch commands.
"""

__version__ = "0.1.0"
