"""Recorded digests that tier-1 tests compare against."""
