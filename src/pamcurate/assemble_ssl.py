"""Final dataset assembly of the two curated manifests."""

from __future__ import annotations

from collections import Counter

import numpy as np

from .core_model import WINDOW_S, CurationManifest
from .errors import ValidationError


def assemble(ais: CurationManifest, hkmeans: CurationManifest) -> CurationManifest:
    """Deduplicating union of the AIS-curated and the cluster-curated manifest.

    When a window is in both, the row with source ``ais`` wins and inherits
    the other row's cluster path when it has none, so no provenance is lost;
    two rows of one window with the same source are an error.  A manifest
    holds each window once, so no input can skew the balance with repeats.
    """
    both = np.concatenate((ais.rows, hkmeans.rows))
    rows = both[np.lexsort((both["source"] != "ais", both["window_id"]))]
    ids, cluster_path = rows["window_id"], rows["cluster_path"]
    repeat = np.flatnonzero(ids[1:] == ids[:-1]) + 1  # each follows the row it collides with, the winner
    same = rows["source"][repeat] == rows["source"][repeat - 1]
    if same.any():
        row = rows[repeat[same.argmax()]]
        raise ValidationError(f"window_id {row['window_id']} appears in both inputs with source {row['source']!r}")
    inherit = repeat[cluster_path[repeat - 1] == ""]
    cluster_path[inherit - 1] = cluster_path[inherit]
    return CurationManifest(np.delete(rows, repeat))


def summarize(manifest: CurationManifest) -> dict:
    """Per-source counts, audio hours, and per-hydrophone breakdown."""
    by_source = Counter(manifest.rows["source"].tolist())
    per_hydrophone = Counter(manifest.rows["hydrophone_id"].tolist())
    total = len(manifest)
    return {
        "total_entries": total,
        "ais_entries": by_source["ais"],
        "hkmeans_entries": by_source["hkmeans"],
        "total_seconds": total * WINDOW_S,
        "total_hours": total * WINDOW_S / 3600.0,
        "per_hydrophone": dict(sorted(per_hydrophone.items())),
    }


def format_summary(summary: dict) -> str:
    lines = [
        f"entries: {summary['total_entries']}",
        f"  ais: {summary['ais_entries']}",
        f"  hkmeans: {summary['hkmeans_entries']}",
        f"audio: {summary['total_seconds']} s ({summary['total_hours']:.2f} h)",
        "per hydrophone:",
    ]
    for hid, count in summary["per_hydrophone"].items():
        lines.append(f"  {hid}: {count}")
    return "\n".join(lines) + "\n"
