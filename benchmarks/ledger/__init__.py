"""The client-to-server performance ledger.

Seeded workloads driven through :class:`~repro.service.CorrelationClient`
against a live ``tesc serve`` subprocess; see ``README.md`` in this
directory for the workloads, the metrics and how to run, trace and compare.
"""
