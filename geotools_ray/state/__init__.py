"""Checkpoint manifests and lineage records."""
