"""The repo's wall-clock benchmark: see ``perf/README.md``."""
