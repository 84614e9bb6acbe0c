"""Vessel trajectory reconstruction from anonymous position reports."""

from .model import (
    AisPoint,
    CbtrConfig,
    ClusterAssignment,
    LinkSet,
    PairMode,
    TrackDataset,
)
from .ingest import IngestError, parse_ais_csv, write_ais_csv
from .cbtr import AbnormalReport, CbtrResult, run_cbtr, select_bpnp
from .npc import NpcConfig, npc_classify, npc_cluster
from .metrics import EvalReport, correct_neighbor_rate, estimate_vessel_count, jumps_merges
from .synth import SynthConfig, downsample, generate_fleet, scenario_s1, scenario_s1_gaps
from .export import export_geojson, export_label_timeline

__all__ = [
    "AisPoint", "TrackDataset", "CbtrConfig", "LinkSet", "ClusterAssignment",
    "PairMode", "IngestError", "parse_ais_csv", "write_ais_csv",
    "AbnormalReport", "CbtrResult", "run_cbtr", "select_bpnp",
    "NpcConfig", "npc_classify", "npc_cluster",
    "EvalReport", "correct_neighbor_rate", "jumps_merges", "estimate_vessel_count",
    "SynthConfig", "generate_fleet", "downsample", "scenario_s1", "scenario_s1_gaps",
    "export_geojson", "export_label_timeline",
]

__version__ = "0.1.0"
