"""Shared substrate-free utilities: YAML subset, hashing, tables, units,
RNG, inter-process locking and crash injection."""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "errors": ("ReproError",),
        "crash": (
            "CrashPlan",
            "SimulatedCrash",
            "active_crash_plan",
            "crashpoint",
            "install_crash_plan",
        ),
        "locking": ("LockInfo", "RepoLock", "ScopedLock"),
        "tables": ("MetricsTable",),
        "rng": ("SeedSequenceFactory", "derive_rng", "derive_seed"),
        "hashing": ("sha256_bytes", "sha256_file", "sha256_text", "short_id"),
        "units": (
            "parse_size",
            "parse_duration",
            "parse_rate",
            "format_size",
            "format_duration",
        ),
    },
)
