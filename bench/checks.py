"""Independent checks of dynmatch's outputs.

None of these reuse the package's LP, trace reader, replay or matcher:
* the LP is rebuilt from the paper's cap/flow/box constraints and solved
  with scipy's HiGHS;
* traces are parsed and replayed here;
* hindsight values come from networkx's blossom matcher, run on each
  connected component of a compatibility graph built here.
Populations (the sampled inputs) are the package's, since the draw
conventions are frozen and are what the outputs are computed from.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math
import os

import numpy as np

LP_RTOL = 1e-7
HINDSIGHT_TOL = 1e-9
ARRIVAL_SIGMAS = 5.0


# ---------------------------------------------------------------------------
# instances


def rates_and_values(doc: dict) -> tuple[list[float], list[float], np.ndarray]:
    """(lambda, mu, dense symmetric values) of an instance JSON document;
    mu is inf for impatient types."""
    labels = [t["label"] for t in doc["types"]]
    index = {label: i for i, label in enumerate(labels)}
    lam = [float(t["arrival_rate"]) for t in doc["types"]]
    mu = [math.inf if t["departure_rate"] == "inf" else float(t["departure_rate"])
          for t in doc["types"]]
    values = np.zeros((len(labels), len(labels)))
    for a, b, v in doc.get("values", []):
        values[index[a], index[b]] = values[index[b], index[a]] = float(v)
    return lam, mu, values


# ---------------------------------------------------------------------------
# LP bound


def lp_value_highs(doc: dict) -> float:
    """v* of the planning LP: maximize sum v_xy lambda_y alpha_xy subject to
    cap alpha_xy <= lambda_x / mu_x, box 0 <= alpha_xy <= 1 and, per type x,
    flow sum_y alpha_xy lambda_y + sum_y alpha_yx lambda_x <= lambda_x.
    Pairs with an impatient x are fixed at zero."""
    from scipy.optimize import linprog
    from scipy.sparse import lil_matrix

    lam, mu, values = rates_and_values(doc)
    n = len(lam)
    pairs = [(x, y) for x in range(n) if math.isfinite(mu[x]) for y in range(n)]
    if not pairs:
        return 0.0
    cost = np.array([-values[x, y] * lam[y] for x, y in pairs])
    flow = lil_matrix((n, len(pairs)))
    for j, (x, y) in enumerate(pairs):
        flow[x, j] += lam[y]
        flow[y, j] += lam[y]
    bounds = [(0.0, min(1.0, lam[x] / mu[x])) for x, _ in pairs]
    res = linprog(cost, A_ub=flow.tocsr(), b_ub=np.array(lam), bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the LP: {res.message}")
    return float(-res.fun)


def check_lp_value(reported: float, doc: dict) -> list[str]:
    expected = lp_value_highs(doc)
    if abs(reported - expected) > LP_RTOL * max(1.0, abs(expected)):
        return [f"lp_value {reported!r} differs from HiGHS {expected!r}"]
    return []


# ---------------------------------------------------------------------------
# traces


def parse_trace(path: str) -> tuple[dict, list[tuple]]:
    """Header fields and rows (time, kind, a, b, value) of a trace CSV;
    agents are (type, serial) tuples, b and value are None when absent."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split()
        if header[:3] != ["#", "dynmatch-trace", "v1"]:
            raise ValueError(f"{path}: not a trace file")
        meta = dict(part.split("=", 1) for part in header[3:])
        if fh.readline().rstrip("\n") != "time,event,agent_a,agent_b,value":
            raise ValueError(f"{path}: unexpected columns")
        rows = []
        for line in fh:
            t, kind, a, b, v = line.rstrip("\n").split(",")
            rows.append((
                float(t), kind, _agent(a),
                _agent(b) if b else None,
                float(v) if v else None,
            ))
    return meta, rows


def _agent(text: str) -> tuple[int, int]:
    x, s = text.split(":")
    return int(x), int(s)


def check_trace(path: str, doc: dict, report: dict) -> list[str]:
    """Replay one trace against the rules of the market and its report row.

    report is the replication row of report.json: seed, horizon, burn_in,
    match_count, avg_value_per_time, arrivals_per_type.
    """
    lam, _, values = rates_and_values(doc)
    meta, rows = parse_trace(path)
    problems: list[str] = []
    horizon, burn_in = float(meta["horizon"]), float(meta["burn_in"])
    for key, got in (("seed", int(meta["seed"])), ("horizon", horizon), ("burn_in", burn_in)):
        if got != report[key]:
            problems.append(f"header {key}={got!r}, report says {report[key]!r}")

    arrived: dict[tuple[int, int], float] = {}
    departs: dict[tuple[int, int], float] = {}
    for t, kind, a, _, _ in rows:
        if kind == "departure":
            if a in departs:
                problems.append(f"{a} departs twice")
            departs[a] = t
    matched: set[tuple[int, int]] = set()
    count, value_sum = 0, 0.0
    for t, kind, a, b, v in rows:
        if kind == "arrival":
            if a in arrived:
                problems.append(f"{a} arrives twice")
            arrived[a] = t
        elif kind == "match":
            for agent in (a, b):
                if agent not in arrived or arrived[agent] > t:
                    problems.append(f"{agent} matched at {t!r} before arriving")
                    continue
                d = departs.get(agent, math.inf)
                if not (t < d or t == arrived[agent]):
                    problems.append(f"{agent} matched at {t!r} after departing at {d!r}")
                if agent in matched:
                    problems.append(f"{agent} matched twice")
                matched.add(agent)
            if v != values[a[0], b[0]]:
                problems.append(f"match {a}-{b} valued {v!r}, instance says {values[a[0], b[0]]!r}")
            if t > burn_in:
                count += 1
                value_sum += v
        elif kind != "departure":
            problems.append(f"unknown event kind {kind!r}")
        if len(problems) > 20:
            return problems + ["(stopped after 20 problems)"]

    if count != report["match_count"]:
        problems.append(f"{count} post-burn-in matches, report says {report['match_count']}")
    rate = value_sum / (horizon - burn_in)
    if not math.isclose(rate, report["avg_value_per_time"], rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"value rate {rate!r}, report says {report['avg_value_per_time']!r}")
    per_type = [0] * len(lam)
    for x, _ in arrived:
        per_type[x] += 1
    if per_type != list(report["arrivals_per_type"]):
        problems.append(f"arrivals per type {per_type} disagree with the report")
    for x, c in enumerate(per_type):
        mean = lam[x] * horizon
        if abs(c - mean) > ARRIVAL_SIGMAS * math.sqrt(mean):
            problems.append(f"type {x}: {c} arrivals, expected {mean:.1f} within 5 sigma")
    return problems


# ---------------------------------------------------------------------------
# hindsight


def population_edges(arrivals: list[np.ndarray], departures: list[np.ndarray],
                     values: np.ndarray) -> tuple[list[int], list[tuple[int, int, float]]]:
    """Agents as nodes (type ids) and positively valued pairs whose presence
    windows [arrival, departure) overlap, as weighted edges."""
    types = np.concatenate([np.full(len(a), x) for x, a in enumerate(arrivals)]).astype(int)
    arr = np.concatenate(arrivals)
    dep = np.concatenate(departures)
    order = np.argsort(arr, kind="stable")
    types, arr, dep = types[order].tolist(), arr[order].tolist(), dep[order].tolist()
    edges = []
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            if arr[j] >= dep[i] and arr[j] > arr[i]:
                break
            # i arrives first: j overlaps when it arrives inside i's window,
            # or at the same instant as i while its own window is open
            if arr[j] < dep[i] or (arr[j] == arr[i] and arr[i] < dep[j]):
                v = values[types[i], types[j]]
                if v > 0.0:
                    edges.append((i, j, float(v)))
    return types, edges


def matching_value(n_nodes: int, edges: list[tuple[int, int, float]]) -> float:
    """Maximum matching weight, solved one connected component at a time,
    which keeps networkx's cost to that of the components."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(n_nodes))
    graph.add_weighted_edges_from(edges)
    component = {}
    for k, nodes in enumerate(nx.connected_components(graph)):
        component.update(dict.fromkeys(nodes, k))
    by_component: dict[int, list[tuple[int, int, float]]] = {}
    for e in edges:
        by_component.setdefault(component[e[0]], []).append(e)
    total = 0.0
    for part in by_component.values():
        if len(part) == 1:
            total += part[0][2]  # a lone edge is its own best matching
            continue
        sub = nx.Graph()
        sub.add_weighted_edges_from(part)
        total += sum(sub[a][b]["weight"] for a, b in nx.max_weight_matching(sub))
    return total


def hindsight_estimate(doc: dict, horizon: float, populations) -> tuple[float, float]:
    """Mean and standard error of hindsight value per unit time over
    populations, each a pair (arrivals per type, departures per type)."""
    _, _, values = rates_and_values(doc)
    per_time = []
    for arrivals, departures in populations:
        types, edges = population_edges(arrivals, departures, values)
        per_time.append(matching_value(len(types), edges) / horizon)
    arr = np.array(per_time)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))


def check_hindsight(row: dict, doc: dict, populations) -> list[str]:
    mean, se = hindsight_estimate(doc, row["horizon"], populations)
    problems = []
    for key, expected in (("mean_value_per_time", mean), ("se", se)):
        if abs(row[key] - expected) > HINDSIGHT_TOL * max(1.0, abs(expected)):
            problems.append(f"hindsight @ {row['horizon']:g}: {key} {row[key]!r}, "
                            f"networkx gives {expected!r}")
    return problems


# ---------------------------------------------------------------------------
# properties


def _se(row: dict) -> float:
    # a single replication has no standard error; test it without slack
    return row["se"] or 0.0


def check_properties(doc: dict) -> list[str]:
    """The paper's and the acceptance criteria's inequalities on a
    comparison.json or report.json document."""
    v_star = doc["lp_value"]
    problems = []
    for row in doc["policies"]:
        kind = row["policy"]["kind"]
        mean, se = row["mean_value_per_time"], _se(row)
        if mean > v_star + 3.0 * se:
            problems.append(f"{kind}: {mean!r} above v* {v_star!r} + 3 SE")
        if kind == "online_match" and mean < v_star / 8.0 - 3.0 * se:
            problems.append(f"online_match: {mean!r} below v*/8 = {v_star / 8.0!r} - 3 SE")
    online = [r for r in doc["policies"] if r["policy"]["kind"] == "online_match"]
    for h in doc.get("hindsight", []):
        if h["mean_value_per_time"] > v_star + 2.0 * h["se"]:
            problems.append(f"hindsight @ {h['horizon']:g}: {h['mean_value_per_time']!r} "
                            f"above v* {v_star!r} + 2 SE")
        for row in online:
            if row["mean_value_per_time"] > h["mean_value_per_time"] + 2.0 * h["se"]:
                problems.append(f"online {row['mean_value_per_time']!r} above hindsight "
                                f"@ {h['horizon']:g} {h['mean_value_per_time']!r} + 2 SE")
    diagnostics = doc.get("diagnostics")
    if diagnostics is not None:
        for row in diagnostics["rows"]:
            if row["verdict"] == "FAIL":
                problems.append(f"diagnostics FAIL: {row['bound']}[{row['subject']}]")
    return problems


def check_same_files(first: str, second: str) -> list[str]:
    """Two output trees written by identical commands are byte-identical."""
    problems = []
    names_a = sorted(_files(first))
    names_b = sorted(_files(second))
    if names_a != names_b:
        return [f"file sets differ: {sorted(set(names_a) ^ set(names_b))}"]
    for name in names_a:
        with open(os.path.join(first, name), "rb") as fa, open(os.path.join(second, name), "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"{name} differs between identical runs")
    return problems


def _files(root: str) -> list[str]:
    out = []
    for dirpath, _, filenames in os.walk(root):
        out.extend(os.path.relpath(os.path.join(dirpath, f), root) for f in filenames)
    return out
