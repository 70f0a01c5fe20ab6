"""End-to-end and per-layer benchmark of deskml training (see README.md)."""
