"""The repository's benchmark: workloads, layer spans and the runner."""
