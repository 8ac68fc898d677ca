"""Whole-run ingest benchmark with a traced per-layer breakdown."""
