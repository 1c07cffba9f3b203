"""graph.json and graph.dot built from dicts and json.dumps, used only as a
test oracle.

This is the straightforward writer: one dict per node and per link, the
whole object through ``json.dumps(..., indent=2, sort_keys=True)``, and
the DOT lines formatted from those dicts.  `simnet.cli.cmd_export_graph`
writes from per-node strings instead and must give the same bytes.
"""

import json

from simnet.evaluation import UNLABELED


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export_texts(g, p, ds, accuracy=None) -> tuple[str, str]:
    """The (graph.json, graph.dot) texts for graph ``g`` and partition ``p``."""
    deg = g.degrees()
    labels = p.community_labels
    nodes = []
    for i, nid in enumerate(g.node_ids):
        lab = labels[int(p.membership[i])]
        nodes.append({
            "id": nid,
            "family": ds[nid].family,
            "community": int(p.membership[i]),
            "predicted_label": lab if lab is not None else UNLABELED,
            "degree": int(deg[i]),
        })
    links = [{"source": g.node_ids[i], "target": g.node_ids[j], "weight": w}
             for i, j, w in g.edges()]
    meta = {
        "weights": g.weights_used.as_dict(),
        "threshold": g.threshold,
        "modularity": p.modularity,
        "accuracy": accuracy,
    }
    graph_json = json.dumps({"nodes": nodes, "links": links, "meta": meta},
                            indent=2, sort_keys=True) + "\n"

    out = ["graph simnet {"]
    for node in nodes:
        out.append(
            '  "{id}" [family="{family}", community={community}, '
            'predicted="{predicted}", degree={degree}];'.format(
                id=_dot_escape(node["id"]),
                family=_dot_escape(node["family"] or ""),
                community=node["community"],
                predicted=_dot_escape(node["predicted_label"]),
                degree=node["degree"]))
    for link in links:
        out.append('  "{s}" -- "{t}" [weight={w:.6f}];'.format(
            s=_dot_escape(link["source"]), t=_dot_escape(link["target"]),
            w=link["weight"]))
    out.append("}")
    return graph_json, "\n".join(out) + "\n"
