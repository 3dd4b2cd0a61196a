"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every convergence and solve operation of every workload (full and
``--tiny`` sizes) once and writes ``perfbench/reference.json``, keyed by the
operation's argv.  Re-record only when a change is meant to move results
beyond the tolerances stated in ``run.py``, and say so where it lands.
"""

import json

import run


def main():
    run.import_program()
    reference = {}
    for workload in run.WORKLOADS:
        for tiny in (False, True):
            for argv in run.family_ops(workload, tiny).values():
                rc, _, out, err = run.run_op(argv)
                if rc != 0:
                    raise SystemExit(f"{' '.join(argv)} failed: {err}")
                if argv[0] == "solve":
                    entry = run.parse_solve(out)
                else:
                    entry = [
                        [r["iota"], r["level"], r["dofs"], r["rel_energy_err"]]
                        for r in run.parse_csv(out)
                    ]
                reference[" ".join(argv)] = entry
                print(" ".join(argv), flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
