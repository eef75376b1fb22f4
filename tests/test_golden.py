"""Golden report bytes.

Every byte below was recorded from the command line and the certificate
serializer as they stand; a refactor of the elimination kernel, the
conjugation composite or the equivalence search must reproduce them
exactly, because the chosen cycle representatives decide the ``iota`` and
``Q`` matrices and the certificate components.
"""
import hashlib
import json
import os
import subprocess
import sys

import pytest

from bhfi import (box_tensor, find_structure_equivalence, identity_da,
                  homology, mor_complex_DD, omega_equivalence)
from bhfi.cli import main
from bhfi.equivalence import search_small_equivalence
from bhfi.standard import cfda_az

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def builtins(command, *names):
    argv = [command]
    for name in names:
        argv += ["--builtin", name]
    return argv


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def certificate_digest(cert):
    return sha256(json.dumps(cert.to_json(), sort_keys=True))


GENUS_1_HFIHAT = ('{"Q": [[0, 0], [1, 0]], "hf_dim": 1, "hfi_dim": 2, '
                  '"iota": [[1]], "ker": 1}\n')

HFIHAT = {
    ("cfd0", "cfd0"):
        '{"Q": [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]], '
        '"hf_dim": 2, "hfi_dim": 4, "iota": [[1, 0], [0, 1]], "ker": 2}\n',
    ("cfd_inf", "cfd0"): GENUS_1_HFIHAT,
    ("cfd0", "cfd_m1"): GENUS_1_HFIHAT,
    ("cfd_m1", "cfd_inf"): GENUS_1_HFIHAT,
    ("cfd0_k2", "cfd0_k2"):
        '{"Q": [[0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0], '
        '[0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0], '
        '[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0], '
        '[0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]], '
        '"hf_dim": 4, "hfi_dim": 8, '
        '"iota": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], '
        '"ker": 4}\n',
}

MCG = ("mcg", "cfa0_k1", "cfd0", "az_k1", "azbar_k1")
MCG_REPORT = '{"action": [[1, 0], [0, 1]]}\n'

TRIANGLE = ("triangle", "cfa0_k1")
TRIANGLE_REPORT = ('{"chain_maps": true, "hat_dims": [1, 1, 2], '
                   '"hat_exact": true, "involutive_dims": [2, 2, 4], '
                   '"involutive_exact": true, "levelwise_exact": true}\n')


class TestCliBytes:
    @pytest.mark.parametrize("pair", sorted(HFIHAT))
    def test_hfihat(self, capsys, pair):
        assert run(capsys, *builtins("hfihat", *pair)) == HFIHAT[pair]

    def test_mcg(self, capsys):
        assert run(capsys, *builtins(*MCG)) == MCG_REPORT

    def test_triangle(self, capsys):
        assert run(capsys, *builtins(*TRIANGLE)) == TRIANGLE_REPORT


class TestCertificateBytes:
    def test_identity_to_composite(self, z1, az1, azbar1):
        cert = find_structure_equivalence(identity_da(z1),
                                          box_tensor(az1, azbar1))
        assert cert.search_index == ()
        assert certificate_digest(cert) == \
            "72d8072ffd8762cebe7ca74f20796f4de68bcb0dc5bec63697a4e0927393984d"

    def test_omega(self, z1):
        assert certificate_digest(omega_equivalence(z1)) == \
            "06585883e4acf339d435cc1dcee412d64133adcc363f82902af5d02781e7b167"

    def test_small_search_self(self, z1):
        ident = identity_da(z1)
        cert = search_small_equivalence(ident, ident)
        assert cert.search_index == (3,)
        assert certificate_digest(cert) == \
            "a7deeb841a72ea19aee22b8d3abb241429b44488176bed70ed2012e7b0070563"

    def test_small_search_to_composite(self, z1, az1, azbar1):
        cert = search_small_equivalence(identity_da(z1),
                                        box_tensor(az1, azbar1))
        assert cert.search_index == (30,)
        assert certificate_digest(cert) == \
            "a9a79fe84ce03d81f6fdf546ee0912dfc76706616bb1a508274cf67f443e9737"


def test_twisted_genus_2_cycle_representatives(z2, cfd0_k2):
    twisted = box_tensor(cfda_az(z2), cfd0_k2)
    data = homology(mor_complex_DD(twisted, cfd0_k2).complex)
    assert data.dimension == 4
    assert sha256(repr(data.cycles)) == \
        "7008e22224c0b1d812af5e4dbf2fd41f42b357f74fd0dfa0d1722bdd68dd64b2"


@pytest.mark.parametrize("argv", [
    builtins("hfihat", "cfd_inf", "cfd0"), builtins(*MCG),
    builtins(*TRIANGLE)], ids=["hfihat", "mcg", "triangle"])
def test_reports_independent_of_hash_seed(argv):
    outputs = []
    for seed in ("0", "1"):
        src = os.path.join(ROOT, "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run([sys.executable, "-m", "bhfi.cli", *argv],
                              cwd=ROOT, env=env, capture_output=True,
                              timeout=300, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
