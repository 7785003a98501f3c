"""Templar: augmenting NLIDBs with SQL query logs (ICDE 2019 reproduction).

The package reproduces *Bridging the Semantic Gap with SQL Query Logs in
Natural Language Interfaces to Databases* (Baik, Jagadish, Li; ICDE 2019)
as a complete system: the Templar augmentation layer, every substrate it
needs (in-memory relational engine, SQL front-end, schema-graph Steiner
machinery, similarity models), the Pipeline/NaLIR systems it is evaluated
against, the three benchmark datasets, the evaluation harness, and a
production serving stack behind one declarative entry point.

Quick start::

    from repro.api import Engine, EngineConfig

    with Engine.from_config(EngineConfig(dataset="mas")) as engine:
        response = engine.translate("return the papers after 2000")
        print(response.sql)

See README.md for the architecture overview; the paper-versus-measured
numbers come from ``benchmarks/bench_table3_accuracy.py``.
"""

__version__ = "1.8.0"

__all__ = ["Engine", "EngineConfig", "__version__"]


def __getattr__(name: str):
    # Lazy re-exports: `repro.Engine` without paying the full import
    # chain (datasets, serving) for `import repro` alone.
    if name in ("Engine", "EngineConfig"):
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
