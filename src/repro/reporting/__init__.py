"""Presentation helpers: paper-style result tables."""

from .tables import (effort_rows, effort_table, health_table,
                     improvement_table, merged_provenance_table,
                     mismatch_table, optimization_trace_table, queue_table,
                     side_by_side)

__all__ = ["effort_rows", "effort_table", "health_table",
           "improvement_table", "merged_provenance_table", "mismatch_table",
           "optimization_trace_table", "queue_table", "side_by_side"]
