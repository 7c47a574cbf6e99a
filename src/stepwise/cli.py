"""Command-line entry point: prove, extract, eval, serve, bench."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bench import run_bench
from .core import Theory
from .config import ConfigError, EngineConfig, GeneratorError, build_config, load_config_file
from .engine import prove_theorem, write_report
from .evaluation import (
    GROUPINGS,
    RunRecord,
    aes,
    check_fractions,
    completion_experiment,
    coverage_lines,
    jaccard_similarity,
    length_bucket,
    proof_text,
    sequence_similarity,
    success_rate,
)
from .extraction import extract_pairs, write_dataset
from .prover import ProverError, ToyProver, load_theory, render_theory
from .protocol import ProverServer, tcp_server


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("engine")
    group.add_argument("--config", help="flat key = value config file")
    group.add_argument("--seed", type=int)
    group.add_argument("--endpoint", dest="backend_endpoint", metavar="ENDPOINT",
                       help="host:port of a prover server (default: an in-process prover)")
    group.add_argument("--k", type=int, dest="top_k", help="states expanded per iteration")
    group.add_argument("--alpha", type=float, help="length-normalisation exponent")
    group.add_argument("--candidates", type=int, dest="candidates_per_state",
                       metavar="CANDIDATES", help="candidate steps per state")
    group.add_argument("--max-iterations", type=int)
    group.add_argument("--time-limit", type=float, dest="time_limit_s", metavar="TIME_LIMIT",
                       help="search time limit in seconds")
    group.add_argument("--node-budget", type=int)
    group.add_argument("--no-revision", action="store_const", const=0,
                       dest="repair_rounds")
    group.add_argument("--no-filtering", action="store_const", const=False,
                       dest="filtering_enabled")
    group.add_argument("--hammer-timeout", type=float, dest="hammer_timeout_s",
                       metavar="HAMMER_TIMEOUT", help="fallback seconds per state")
    group.add_argument("--hammer-states", type=int, help="fallback states to try")


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    """Each engine flag's ``dest`` is the ``EngineConfig`` field it sets."""
    file_values = load_config_file(args.config) if args.config else {}
    fields = {f.name for f in dataclasses.fields(EngineConfig)}
    return build_config(file_values, {k: v for k, v in vars(args).items() if k in fields})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepwise",
        description="Best-first proof search over a miniature interactive prover")
    sub = parser.add_subparsers(dest="command", required=True)

    p_prove = sub.add_parser("prove", help="search for proofs and write reports")
    p_prove.add_argument("--theory", required=True, help="theory file")
    p_prove.add_argument("--theorem", help="one theorem id (default: all theorems)")
    p_prove.add_argument("--out", default="reports", help="report directory")
    _add_engine_flags(p_prove)

    p_extract = sub.add_parser("extract", help="emit (state, step) training pairs")
    p_extract.add_argument("--theory", required=True)
    p_extract.add_argument("--out", required=True, help="output .jsonl path")

    p_eval = sub.add_parser("eval", help="metrics over report files")
    p_eval.add_argument("--reports", help="directory of per-theorem reports")
    p_eval.add_argument("--theory", help="theory file for ground-truth metrics")
    p_eval.add_argument("--out", help="write the JSON report here (default stdout)")
    p_eval.add_argument("--csv-dir", help="also write one CSV per table")
    p_eval.add_argument("--completion", action="store_true",
                        help="run the proof-completion experiment")
    p_eval.add_argument("--fractions", default="0.0,0.25,0.5,0.75,1.0",
                        help="ascending expert-written fractions")
    _add_engine_flags(p_eval)

    p_serve = sub.add_parser("serve", help="run the reference prover server")
    mode = p_serve.add_mutually_exclusive_group(required=True)
    mode.add_argument("--port", type=int, help="listen on TCP port")
    mode.add_argument("--stdio", action="store_true", help="serve stdin/stdout")

    p_bench = sub.add_parser("bench", help="seeded corpus + three-arm comparison")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="write corpus, reports, and tables here")

    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _load_theory_file(path: str) -> Theory:
    return load_theory(Path(path).read_text())


def cmd_prove(args: argparse.Namespace) -> int:
    config = _engine_config(args)
    theory = _load_theory_file(args.theory)
    if args.theorem:
        names = [args.theorem]
    else:
        names = [e.name for e in theory.entries if e.kind == "theorem"]
    if not names:
        print("no theorems to prove", file=sys.stderr)
        return 1

    failures = 0
    generator = config.make_generator()
    backend = config.make_backend()
    try:
        for name in names:
            try:
                result = prove_theorem(theory, name, config, backend=backend,
                                       generator=generator)
            except Exception as e:  # noqa: BLE001 - theorem-level errors must not kill the run
                failures += 1
                print(f"{theory.name}.{name}: ERROR {e}", file=sys.stderr)
                continue
            write_report(result.report, args.out)
            status = "PROVED" if result.proved else "FAILED"
            detail = f" via {result.via}, {len(result.steps)} steps" if result.proved else ""
            print(f"{theory.name}.{name}: {status}{detail}")
    finally:
        backend.close()
    print(f"reports written to {args.out}")
    return 1 if failures else 0


def cmd_extract(args: argparse.Namespace) -> int:
    theory = _load_theory_file(args.theory)
    result = extract_pairs(theory, ToyProver())
    count = write_dataset(result.pairs, args.out)
    print(f"wrote {count} pairs to {args.out}")
    for name, reason in result.failures:
        print(f"replay failed for {name}: {reason}", file=sys.stderr)
    return 0


def _records_from_reports(directory: str) -> list[RunRecord]:
    if not Path(directory).is_dir():  # a typo must not read as "no theorems"
        raise ConfigError(f"--reports {directory!r} is not a directory")
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        try:
            report = json.loads(path.read_text())
            proved, steps = report.get("proved"), report.get("steps")
            length = report.get("ground_truth_length", 0)
            if not isinstance(proved, bool):  # bool("false") is True
                raise TypeError(f"proved must be a bool, got {proved!r}")
            if type(length) is not int or length < 0:  # a bool is an int too
                raise TypeError(f"ground_truth_length must be an int >= 0, got {length!r}")
            if steps is not None and not (isinstance(steps, list)
                                          and all(isinstance(s, str) for s in steps)):
                raise TypeError(f"steps must be null or a list of strings, got {steps!r}")
            split, session = report.get("split", "all"), report.get("session", "")
            theory, theorem = report["theory"], report["theorem"]
            # table keys, and the parts of the record's name
            if not all(isinstance(v, str) for v in (split, session, theory, theorem)):
                raise TypeError("split, session, theory and theorem must be strings, got "
                                f"{split!r}, {session!r}, {theory!r}, {theorem!r}")
            records.append(RunRecord(
                theorem=f"{theory}.{theorem}",
                split=split,
                ground_truth_length=length,
                proved=proved,
                generated_proof=tuple(steps) if steps is not None else None,
                session=session,
            ))
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise ConfigError(f"malformed report {path}: {type(e).__name__}: {e}") from None
    return records


def _rows_to_csv(rows) -> str:
    lines = ["group,proved,total,rate"]
    for row in rows:
        lines.append(f"{row.group},{row.proved},{row.total},{row.rate}")
    return "\n".join(lines) + "\n"


def _fractions(text: str) -> list[float]:
    try:
        return check_fractions([float(x) for x in text.split(",") if x.strip()])
    except ValueError as e:
        raise ConfigError(f"--fractions {text!r}: {e}") from None


def cmd_eval(args: argparse.Namespace) -> int:
    output: dict = {}
    if args.completion:
        if not args.theory:
            print("--completion requires --theory", file=sys.stderr)
            return 2
        fractions = _fractions(args.fractions)  # checked before any proof runs
        config = _engine_config(args)
        theory = _load_theory_file(args.theory)
        generator = config.make_generator()
        backend = config.make_backend()

        def prove_fn(th, entry_name, prefix):
            return prove_theorem(th, entry_name, config, backend=backend,
                                 generator=generator, prefix_steps=tuple(prefix)).proved

        try:
            curve, skipped = completion_experiment([theory], fractions, prove_fn)
        finally:
            backend.close()
        literal, saved = aes(curve)
        output["completion"] = {
            "points": [{"sigma": s, "rate": p} for s, p in curve.points],
            "aes_literal": literal,
            "aes_saved": saved,
            "skipped": [{"theorem": t, "reason": r} for t, r in skipped],
        }
    if args.reports:
        records = _records_from_reports(args.reports)
        tables = {name: success_rate(records, group_by)
                  for group_by, (name, _) in GROUPINGS.items()}
        output.update({name: [row.__dict__ for row in rows] for name, rows in tables.items()})
        lines, percent = coverage_lines(records)
        output["coverage"] = {"lines": lines, "percent": round(percent, 1)}
        if args.theory:
            theory = _load_theory_file(args.theory)
            prefix = theory.name + "."
            sims = []
            for record in records:  # only this theory's proofs meet its ground truth
                if (not record.proved or record.generated_proof is None
                        or not record.theorem.startswith(prefix)):
                    continue
                entry = theory.entry(record.theorem[len(prefix):])
                if entry is None or not entry.proof:
                    continue
                gt = proof_text([s.text() for s in entry.proof])
                gen = proof_text(record.generated_proof)
                sims.append({
                    "theorem": record.theorem,
                    "length_bucket": length_bucket(record.ground_truth_length),
                    "sequence": round(sequence_similarity(gen, gt), 4),
                    "jaccard": round(jaccard_similarity(gen, gt), 4),
                })
            output["similarity"] = sims
        if args.csv_dir:
            csv_dir = Path(args.csv_dir)
            csv_dir.mkdir(parents=True, exist_ok=True)
            for name, rows in tables.items():
                (csv_dir / f"{name}.csv").write_text(_rows_to_csv(rows))
    if not output:
        print("nothing to evaluate: pass --reports and/or --completion", file=sys.stderr)
        return 2
    text = json.dumps(output, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    if args.stdio:
        ProverServer().serve_stdio()
        return 0
    if not 0 <= args.port <= 65535:
        raise ConfigError(f"--port needs a port in 0..65535, got {args.port}")
    tcp = tcp_server(port=args.port)
    host, port = tcp.server_address[:2]
    print(f"listening on {host}:{port}", flush=True)
    try:
        with tcp:
            tcp.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    result = run_bench(args.seed)
    print(result.table_text(), end="")
    print(f"# wall time: {result.wall_time:.1f}s (not part of the table)")
    if args.out:
        out = Path(args.out)
        (out / "corpus").mkdir(parents=True, exist_ok=True)
        from .bench import generate_corpus

        for theory in generate_corpus(args.seed):
            (out / "corpus" / f"{theory.name}.thy").write_text(render_theory(theory))
        for report in result.reports:
            write_report(report, out / "reports")
        (out / "table.txt").write_text(result.table_text())
        (out / "table.csv").write_text(result.csv_text())
        print(f"bench artifacts written to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "prove": cmd_prove,
        "extract": cmd_extract,
        "eval": cmd_eval,
        "serve": cmd_serve,
        "bench": cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ProverError, GeneratorError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
