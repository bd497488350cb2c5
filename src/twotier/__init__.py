"""twotier: two-level analysis of team-participation networks.

Pipeline stages: ingest event logs into time-framed weighted graphs, rank
members by frame-by-frame weighted shell decomposition, split off the
backbone, track community evolution in both sub-networks, and abstract each
frame to the community level to measure core-periphery structure.
"""

__version__ = "0.1.0"
