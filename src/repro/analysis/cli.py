"""The ``repro lint`` subcommand: argument wiring and the lint driver.

Kept separate from :mod:`repro.cli` so the analysis package can run
standalone (pre-commit invokes ``python -m repro.analysis.cli`` on the
changed files) and so importing the main CLI never pays for the rule
registry.

The driver has three speed levers, all off by default for library
callers and reproducibility tests:

* ``--cache-dir`` / ``--no-cache`` — per-file analyses are
  content-addressed (:mod:`repro.analysis.cache`), so a warm run
  re-analyzes only edited files;
* ``--jobs N`` — cache misses fan out over a process pool; per-file
  analysis is a pure function of (content, rule set), and the merge
  point sorts by path, so parallel output is byte-identical to serial;
* ``--changed`` — lint only files git reports as modified/added/
  untracked (plus the baseline logic), the pre-commit configuration.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..storage import publish_bytes, sha256_hex
from .baseline import (
    DEFAULT_BASELINE,
    load_baseline,
    split_baselined,
    update_baseline,
)
from .cache import DEFAULT_CACHE_DIR, AnalysisCache, entry_key
from .engine import (
    FileAnalysis,
    LintResult,
    SourceFile,
    analyze_file,
    collect_paths,
    finish_run,
)
from .reporters import render_json, render_sarif, render_text
from .rules import build_rules, rule_catalog


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help=f"baseline file (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report every finding as new",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="merge current findings into the baseline and exit 0: "
             "entries for linted files are replaced, entries outside "
             "the lint scope are kept, entries for deleted files are "
             "pruned (the static-analysis mirror of `repro validate "
             "--update-golden`)",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument("--json", action="store_true")
    parser.add_argument(
        "--sarif", type=Path, default=None, metavar="FILE",
        help="also write a SARIF 2.1.0 report to FILE (for GitHub "
             "code scanning); '-' writes it to stdout instead of the "
             "normal report",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="analyze files with N worker processes (default: 1; "
             "output is byte-identical to serial)",
    )
    parser.add_argument(
        "--changed", action="store_true",
        help="lint only files git reports as changed (staged, "
             "unstaged, or untracked) under the given paths",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help=f"analysis cache directory (default: {DEFAULT_CACHE_DIR}; "
             "a warm cache re-analyzes only edited files)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the analysis cache for this run",
    )


def _worker(payload: Tuple[str, str, Optional[List[str]]]) -> Dict[str, object]:
    """Analyze one file in a worker process (or inline when jobs=1).

    Takes only picklable plain data and returns the serialized
    :class:`FileAnalysis` — the same record the cache stores, so every
    driver path merges identical inputs.
    """
    path_str, root_str, only_rules = payload
    rules = build_rules(only_rules)
    src = SourceFile(Path(path_str), Path(root_str))
    return analyze_file(src, rules).to_dict()


def changed_files(root: Path) -> Optional[Set[Path]]:
    """Python files git reports as touched, resolved; None when git fails."""
    commands = [
        ["git", "diff", "--name-only", "--diff-filter=d", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ]
    names: Set[str] = set()
    for command in commands:
        try:
            proc = subprocess.run(
                command, cwd=root, capture_output=True, text=True,
                timeout=30, check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        names.update(
            line.strip() for line in proc.stdout.splitlines() if line.strip()
        )
    return {
        (root / name).resolve()
        for name in names
        if name.endswith(".py")
    }


def changed_rels(
    targets: Sequence[Tuple[Path, str]], root: Path
) -> Optional[Set[str]]:
    """Rel paths of targets git reports as touched; None when git fails.

    ``--changed`` narrows what is *reported*, not what is *analyzed*:
    project rules over a partial file set would see every unchanged
    subscriber as an orphan and every unchanged caller as dead.  The
    whole target set is analyzed (the cache makes that cheap) and
    findings are then filtered to the touched files.
    """
    touched = changed_files(root)
    if touched is None:
        return None
    return {rel for path, rel in targets if path.resolve() in touched}


def run_lint(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    baseline_path: Optional[Path] = None,
    use_baseline: bool = True,
    only_rules: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
    changed_only: bool = False,
) -> LintResult:
    """Library entry point: lint ``paths`` and return the result."""
    resolved_root = root if root is not None else Path.cwd()
    rules = build_rules(only_rules)
    rule_ids = [rule.id for rule in rules]
    only_list = list(only_rules) if only_rules is not None else None

    targets = collect_paths(list(paths), resolved_root)
    report_rels: Optional[Set[str]] = None
    if changed_only:
        report_rels = changed_rels(targets, resolved_root)

    cache = AnalysisCache(cache_dir) if cache_dir is not None else None
    analyses: List[FileAnalysis] = []
    misses: List[Tuple[Path, str]] = []
    miss_keys: Dict[str, str] = {}
    for path, rel in targets:
        key = None
        if cache is not None:
            try:
                key = entry_key(sha256_hex(path.read_bytes()), rule_ids)
            except OSError:
                key = None
            if key is not None:
                record = cache.get(key)
                if record is not None and record.get("rel") == rel:
                    analyses.append(FileAnalysis.from_dict(record))
                    continue
        misses.append((path, rel))
        if key is not None:
            miss_keys[rel] = key

    payloads = [
        (str(path), str(resolved_root), only_list) for path, rel in misses
    ]
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_worker, payloads))
    else:
        records = [_worker(payload) for payload in payloads]

    for (_, rel), record in zip(misses, records):
        analyses.append(FileAnalysis.from_dict(record))
        if cache is not None and rel in miss_keys:
            cache.put(miss_keys[rel], record)

    findings, suppressed = finish_run(analyses, rules)
    if report_rels is not None:
        findings = [f for f in findings if f.path in report_rels]
        suppressed = [f for f in suppressed if f.path in report_rels]
    allowed = (
        load_baseline(baseline_path)
        if use_baseline and baseline_path is not None
        else {}
    )
    new, baselined = split_baselined(findings, allowed)
    return LintResult(
        findings=new,
        baselined=baselined,
        suppressed=suppressed,
        files_checked=len(analyses),
        rules_run=rule_ids,
        files_analyzed=len(misses),
        files_cached=len(analyses) - len(misses),
    )


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule_id, cls in rule_catalog().items():
            print(f"{rule_id}  {cls.title}")
        return 0

    raw_paths = args.paths or ["src/repro"]
    paths = [Path(p) for p in raw_paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro lint: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    only_rules: Optional[List[str]] = None
    if args.rules:
        only_rules = [r for r in args.rules.split(",") if r.strip()]

    baseline_path = args.baseline if args.baseline is not None else DEFAULT_BASELINE
    cache_dir: Optional[Path] = None
    if not args.no_cache:
        cache_dir = (
            args.cache_dir if args.cache_dir is not None else DEFAULT_CACHE_DIR
        )

    jobs = max(1, args.jobs)

    if args.update_baseline:
        result = run_lint(
            paths, baseline_path=None, use_baseline=False,
            only_rules=only_rules, jobs=jobs, cache_dir=cache_dir,
            changed_only=args.changed,
        )
        root = Path.cwd()
        targets = collect_paths(paths, root)
        linted = {rel for _, rel in targets}
        if args.changed:
            touched = changed_rels(targets, root)
            if touched is not None:
                linted = touched
        update = update_baseline(
            result.findings, baseline_path, linted, root,
        )
        print(
            f"baseline updated: {len(result.findings)} finding(s) from "
            f"this run, {update.kept_outside} kept outside the lint "
            f"scope, now {update.new_total} total in {baseline_path}"
        )
        for pruned_path in update.pruned:
            print(
                f"baseline: pruned entries for deleted file {pruned_path}",
                file=sys.stderr,
            )
        if update.shrank:
            print(
                f"baseline: warning: shrank from {update.old_total} to "
                f"{update.new_total} fingerprint slot(s) — verify the "
                "debt was actually paid down (fixed findings or deleted "
                "files), not accidentally un-linted",
                file=sys.stderr,
            )
        return 0

    result = run_lint(
        paths,
        baseline_path=baseline_path,
        use_baseline=not args.no_baseline,
        only_rules=only_rules,
        jobs=jobs,
        cache_dir=cache_dir,
        changed_only=args.changed,
    )
    sarif_to_stdout = args.sarif is not None and str(args.sarif) == "-"
    if args.sarif is not None:
        sarif_payload = json.dumps(
            render_sarif(result), indent=2, sort_keys=True
        )
        if sarif_to_stdout:
            print(sarif_payload)
        else:
            publish_bytes(args.sarif, (sarif_payload + "\n").encode("utf-8"))
    if not sarif_to_stdout:
        if args.json:
            print(json.dumps(render_json(result), indent=2, sort_keys=True))
        else:
            for line in render_text(result):
                print(line)
    return 0 if result.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="determinism & contract linter for the repro codebase",
    )
    add_lint_arguments(parser)
    return cmd_lint(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
