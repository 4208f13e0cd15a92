"""The benchmark's workloads: fixed ``qlat`` command sequences and their checks.

A workload is a list of operations.  Each operation is one ``qlat`` command
line, run through ``qlat.cli.main`` inside a pass process, plus the checks
its captured stdout must satisfy.  Every check is exact: the frozen SHA-256
of the command's stdout, and a law the output must obey (suite reports with
zero failures and their frozen instance counts, line and neighbor counts
equal to the closed-form count of the reduction, the K3 degree law).

Outputs do not depend on the workload seed: the seed reaches only
``verify cokernel-m``, whose report lists failing instances and nothing
else, so with every instance passing its bytes are the same for all seeds.
The exhaustive suites ignore the seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

WORKLOADS = ("cochar", "witt", "cli-mix")

# Suite name -> frozen number of instances the report must show.
SUITE_INSTANCES = {
    "nice-cochar": 6,  # with --p 2
    "witt-extension": 69784,
    "cokernel-m": 200,
    "lang-counts": 36,
    "neighbor-bijection": 39,
    "k3-degree": 10,
    "spinor-surjectivity": 12,
}

# Frozen SHA-256 of each command's stdout, keyed by the command line.
STDOUT_SHA256 = {
    "verify nice-cochar --p 2":
        "791486a7bd0f89a65ecd3531e5aba0232bc712d4846f3c5270b5310348ca60ac",
    "verify witt-extension":
        "722ba95b70a7e8bb03c404cf9e4072dd2cb6c31653ed037da0cd53d7b9f4e87e",
    "quadric lines H⊥H⊥H⊥H --p 7":
        "42a56c7bd5593ea330c5cec85bccec86d123221caa55e1ce6723065a83844824",
    "neighbors H⊥H⊥H --p 5":
        "8d8d8be1bcc54c8b0f1bd5930ef16bf9f074f46f8482890e90c1cdb984103cbb",
    "neighbors H⊥E8 --p 2":
        "fc3536caadf3b666c802fe2865f0ed589d190e3aed04266f7dfc1324effd9171",
    "lattice info K3":
        "524d4378715fa97cb51b9530af8b05fe0a530dd50140d92ca591f173c11a9154",
    "lattice info H⊥E8":
        "13b89b3b236d05efac92dc868d291dc3181507a201bf027528218a5ff9a2a2a5",
    "k3-isogeny --d 1 --p 2":
        "89e10a045b4088f093d616f44fc0b2cdd854aecbd469deb8ec1238531ce967e4",
    "k3-isogeny --d 1 --p 3":
        "619a83472bf831b349c5dfbbeeaf16e9b79b3731b7e000c0aa68128dcad50bb4",
    "k3-isogeny --d 2 --p 2":
        "405d0ee08cea4771a93853029fe74617d94d0561615ff510a6869821c76f231e",
    "k3-isogeny --d 2 --p 3":
        "5596cc3383dd33bdc5c055f7d2413bf187dc9ff6e514634a907b7a2a552cd9f3",
    "k3-isogeny --d 3 --p 2":
        "f65109a1c890d6d40d4359ccc156d94362b8964a98884cd1e0e4635a10a8cbd2",
    "k3-isogeny --d 3 --p 3":
        "8c372b0fa23772bc9c48eb2c5655e398f1db01ee4fc1b6297519ad806e6afd8f",
    "k3-isogeny --d 4 --p 2":
        "14fb1f7e109a04109a320479d2e565fdc10f6671c814ff7012b5e8b39293ef7a",
    "k3-isogeny --d 4 --p 3":
        "c21d7d4c5a661aabe8b0dc43f72bb93b7dcc5a2af272fae0cd0b88218c962251",
    "k3-isogeny --d 5 --p 2":
        "5c8f1c291402ea6a51b2da71fba55b7b4ba41bb47f3acdb7ac2c769b2645b7fe",
    "k3-isogeny --d 5 --p 3":
        "fe2f1e773664a0409f8f695778ab2388716833ac054822f29a1bd2b859c0c38f",
    "verify cokernel-m --seed <seed>":
        "9fcedcae5de5745bb176811ba60a76c5bc9c568e85db67a95f86f6a22b068f22",
    "verify lang-counts":
        "a2947951bf92c5f9f5d8891a1d3d0cbe90a4e3a1f56f3d10be647ee36a017992",
    "verify neighbor-bijection":
        "d77b6ad8fff4c48102bfaa36d55ab41e6229e4687750ddf250ee9358f5076e8a",
    "verify k3-degree":
        "354b90c731374b21c995dc3299bb8a0df74d04f995020136606a5ab632a620b4",
    "verify spinor-surjectivity":
        "07b4d2556e779fdaf625518f2ca5b0d2ee7081d1c47297a2f53ca0bc0818562e",
}


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload."""

    argv: tuple[str, ...]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def operations(workload: str, seed: int) -> list[Op]:
    """The command sequence of ``workload``; ``seed`` reaches cokernel-m only."""
    if workload == "cochar":
        argvs = [("verify", "nice-cochar", "--p", "2")]
    elif workload == "witt":
        argvs = [("verify", "witt-extension")]
    elif workload == "cli-mix":
        argvs = [
            ("quadric", "lines", "H⊥H⊥H⊥H", "--p", "7"),
            ("neighbors", "H⊥H⊥H", "--p", "5"),
            ("neighbors", "H⊥E8", "--p", "2"),
            ("lattice", "info", "K3"),
            ("lattice", "info", "H⊥E8"),
        ]
        argvs += [
            ("k3-isogeny", "--d", str(d), "--p", str(p))
            for d in range(1, 6)
            for p in (2, 3)
        ]
        argvs += [
            ("verify", "cokernel-m", "--seed", str(seed)),
            ("verify", "lang-counts"),
            ("verify", "neighbor-bijection"),
            ("verify", "k3-degree"),
            ("verify", "spinor-surjectivity"),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [Op(a) for a in argvs]


def _frozen_key(op: Op) -> str:
    """The command line with the seed masked (its output is seed-independent)."""
    if op.argv[:2] == ("verify", "cokernel-m"):
        return "verify cokernel-m --seed <seed>"
    return op.label


def _closed_form_count(lattice: str, p: int) -> int:
    from qlat.padic_lattice import reduction
    from qlat.serialize import load_lattice_arg
    from qlat.verify import closed_form_line_count

    return closed_form_line_count(reduction(load_lattice_arg(lattice), p))


def check(op: Op, rc, error, out: bytes) -> str | None:
    """Why the operation failed, or None when every check holds."""
    if error is not None:
        return f"raised {error}"
    if rc != 0:
        return f"exit code {rc}"
    digest = hashlib.sha256(out).hexdigest()
    frozen = STDOUT_SHA256.get(_frozen_key(op))
    if digest != frozen:
        return f"stdout sha256 {digest} != frozen {frozen}"
    doc = json.loads(out)
    cmd = op.argv
    if cmd[0] == "verify":
        want = SUITE_INSTANCES[cmd[1]]
        if doc["failures"] != 0 or doc["instances"] != want:
            return f"report {doc['failures']} failures in {doc['instances']} instances, want 0 in {want}"
    elif cmd[0] in ("quadric", "neighbors"):
        items = doc["lines"] if cmd[0] == "quadric" else doc["neighbors"]
        want = _closed_form_count(cmd[-3], int(cmd[-1]))
        if doc["count"] != want or len(items) != want:
            return f"count {doc['count']} ({len(items)} listed), closed form {want}"
    elif cmd[0] == "k3-isogeny":
        d, p = int(cmd[2]), int(cmd[4])
        if doc["degree"] != p * p * d:
            return f"degree {doc['degree']} != p^2 d = {p * p * d}"
    return None
