"""Which gibbscode functions the traced pass wraps, and the per-layer
metrics derived from their spans and counts.

Each function is wrapped under the name its callers look up (gexit calls
the `all_extrinsics` it imported from exact, so that is the binding that
is replaced).  Spans nest, so a layer's self time excludes the layers it
calls: the posterior pass does not include its table build.
"""

from __future__ import annotations

import math
import os

from gibbscode import bp, cli, clusters, de, duality, exact, experiments, gexit, graphs

from tracing import by_name


def _add(key, size):
    def hook(tracer, out, args, kwargs):
        tracer.add(key, size(out, *args))
    return hook


def _table_hook(table):
    """Builds and hits from the table cache's own counters; rows kept,
    configurations enumerated and bytes for each build."""
    seen = [table.cache_info().misses]

    def hook(tracer, X, args, kwargs):
        misses = table.cache_info().misses
        if misses == seen[0]:
            tracer.add("exact.table.hits")
            return
        seen[0] = misses
        tracer.add("exact.table.builds")
        tracer.add("exact.table.rows", X.shape[0])
        tracer.add("exact.table.space", 1 << args[0].free_spin_count)
        tracer.add("exact.table.bytes", X.nbytes)
    return hook


def _samples(index):
    return _add("gexit.samples", lambda out, *args: int(args[index]))


def install(tracer):
    """Wrap every traced gibbscode function; tracer.restore() undoes it."""
    extrinsics = _add("channels.kernel.extrinsics", lambda out, ch, M: len(M))
    posterior = [(gexit, "all_extrinsics"), (gexit, "all_marginals"),
                 (gexit, "conditional_entropy"), (experiments, "correlations_with_root"),
                 (experiments, "spin_product_correlation"), (duality, "all_marginals"),
                 (duality, "pair_correlation"), (exact, "partition_function"),
                 (exact, "all_marginals"), (clusters, "spin_product_correlation")]
    table = [
        (gexit, "gexit_kernel_batch", "channels.kernel", extrinsics),
        (de, "gexit_kernel_batch", "channels.kernel", extrinsics),
        (gexit, "sample_llr", "channels.sample_llr", None),
        (experiments, "sample_llr", "channels.sample_llr", None),
        (de, "sample_llr", "channels.sample_llr", None),
        (exact, "codebit_table", "exact.table", _table_hook(exact.codebit_table)),
        *[(mod, attr, "exact.posterior", None) for mod, attr in posterior],
        (gexit, "map_gexit", "gexit.functional", _samples(2)),
        (gexit, "map_gexit_series", "gexit.series", _samples(2)),
        (gexit, "entropy_fd", "gexit.entropy_fd", _samples(3)),
        (gexit, "awgn_gexit", "gexit.awgn", _samples(2)),
        (gexit, "bp_gexit", "gexit.bp", _samples(3)),
        (gexit, "bp_gexit_multi_depth", "gexit.multi_depth", _samples(3)),
        (gexit, "bp_all_extrinsics", "bp.flood",
         _add("bp.flood.edge_iters", lambda out, inst, d: inst.graph.n_edges * d)),
        (bp, "bp_run", "bp.flood",
         _add("bp.flood.edge_iters", lambda out, inst, d: inst.graph.n_edges * d)),
        (bp, "bp_checkpoint_extrinsics", "bp.flood",
         _add("bp.flood.edge_iters",
              lambda out, inst, depths: inst.graph.n_edges * max(depths))),
        (bp, "tree_decode", "bp.tree_decode", None),
        (graphs, "computational_tree", "graphs.comp_tree",
         _add("graphs.comp_tree.nodes", lambda out, *args: out.n_nodes)),
        (gexit, "sample_ensemble", "graphs.sample_ensemble", None),
        (experiments, "sample_ensemble", "graphs.sample_ensemble", None),
        (experiments, "graph_distance", "graphs.distance", None),
        (clusters, "graph_distance", "graphs.distance", None),
        (clusters, "same_type_distance", "graphs.distance", None),
        (clusters, "enumerate_saws", "graphs.saws",
         _add("graphs.saws.walks", lambda out, *args: len(out))),
        (clusters, "dkp_pointwise_bound", "clusters.dkp",
         _add("clusters.dkp.truncated", lambda out, *args: int(out[1]))),
        (clusters, "dkp_avg_bound", "clusters.dkp", None),
        (clusters, "berretti_identity_residual", "clusters.berretti", None),
        (duality, "macwilliams_log_residual", "duality.macwilliams", None),
        (duality, "duality_residuals", "duality.residuals",
         _add("duality.sinh_skipped", lambda out, *args: sum(map(math.isnan, out)))),
        (duality, "dual_bracket_via_primal", None,
         _add("duality.primal_fallbacks", lambda out, *args: 1)),
        (de, "de_gexit", "de.gexit",
         _add("de.gexit.sample_halfsteps",
              lambda out, family, dd, ch, d, n_pop, seed: n_pop * 2 * d)),
        (cli, "run_experiment", "experiments.run", None),
        (cli, "emit", "experiments.emit",
         _add("experiments.emit.bytes", lambda out, result, fmt, path: os.path.getsize(path))),
    ]
    for module, attr, name, hook in table:
        tracer.patch(module, attr, name, hook)


def metrics(tracer):
    """The per-layer metrics of one traced pass (trace.overhead_frac,
    which needs an untraced pass too, is added by the caller)."""
    layers = by_name(tracer.spans)
    count = lambda key: tracer.counts.get(key, 0)
    calls = lambda name: layers.get(name, (0, 0.0))[0]
    own = lambda name: layers.get(name, (0, 0.0))[1]
    per = lambda total, n, scale: total / n * scale if n else 0.0
    out = {}
    for name in ("channels.kernel", "channels.sample_llr", "exact.posterior", "bp.flood",
                 "bp.tree_decode", "graphs.sample_ensemble", "clusters.dkp",
                 "clusters.berretti", "duality.residuals", "de.gexit"):
        out[f"{name}.calls"] = calls(name)
    for name in ("channels.kernel", "channels.sample_llr", "exact.table", "exact.posterior",
                 "gexit.functional", "gexit.series", "gexit.entropy_fd", "gexit.awgn",
                 "gexit.bp", "gexit.multi_depth", "bp.flood", "bp.tree_decode",
                 "graphs.comp_tree", "graphs.sample_ensemble", "graphs.distance",
                 "graphs.saws", "clusters.dkp", "clusters.berretti", "duality.macwilliams",
                 "duality.residuals", "de.gexit", "experiments.run", "experiments.emit"):
        out[f"{name}.self_s"] = own(name)
    for key in ("exact.table.builds", "exact.table.hits", "exact.table.bytes", "gexit.samples",
                "graphs.comp_tree.nodes", "graphs.saws.walks", "clusters.dkp.truncated",
                "duality.primal_fallbacks", "duality.sinh_skipped", "experiments.emit.bytes",
                "experiments.corr_decay.bins_dropped"):
        out[key] = count(key)
    out["channels.kernel.us_per_extrinsic"] = per(
        own("channels.kernel"), count("channels.kernel.extrinsics"), 1e6)
    out["exact.table.ms_per_build"] = per(own("exact.table"), count("exact.table.builds"), 1e3)
    out["exact.table.kept_ratio"] = per(count("exact.table.rows"), count("exact.table.space"), 1)
    out["exact.posterior.us_per_sample"] = per(
        own("exact.posterior"), calls("exact.posterior"), 1e6)
    out["bp.flood.ns_per_edge_iter"] = per(own("bp.flood"), count("bp.flood.edge_iters"), 1e9)
    out["de.gexit.ns_per_sample_halfstep"] = per(
        own("de.gexit"), count("de.gexit.sample_halfsteps"), 1e9)
    return out
