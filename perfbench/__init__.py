"""perfbench — the repo's wall-clock benchmark (see perfbench/README.md)."""
