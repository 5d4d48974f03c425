"""End-to-end benchmark of the two user-facing paths (see README.md)."""
