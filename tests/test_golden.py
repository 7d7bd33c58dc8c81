"""The CSV artifacts of every bundled command/scenario pair, byte for byte.

Each pair runs in-process, as ``adnlab <command> --scenario
scenarios/<scenario>.json``, and the sha256 of each CSV it writes is held
to :data:`GOLDEN`.  A refactor that leaves behaviour unchanged keeps every
digest.  A change that moves numbers on purpose updates the table and
states each changed file's largest difference.
"""

import hashlib
from pathlib import Path

import pytest

from adnlab.cli import EXIT_OK, run_command

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# (command, scenario) -> {CSV file: sha256}
GOLDEN = {
    ("equilibrium", "two_bus"): {
        "bus_voltages.csv":
            "836422c2f766118b9876e702166eebe51a290c98aa201dede532dce39422a090",
        "spectrum.csv":
            "75fbd93b4b70113c507f7e22d52954533bd96b60622269b1e7d96426f2a7d622",
        "states.csv":
            "9b59667aeaefd40e7a57371463bb3633e0bd375329b59d7977d63e3355d0516d",
    },
    ("equilibrium", "gfl_feeder"): {
        "bus_voltages.csv":
            "8d45753f55d0a27e51bb96fe375f8dcdd60ff449ad7d30b99ab093e83c8e9c41",
        "spectrum.csv":
            "4bcc847fce4b2958e04a9a449a4bac421b11d3df43c7b0e065590ed191e1adf3",
        "states.csv":
            "8735ba11ba92d09f51aa27fb56279a6339e99a6f13a5fafe00495baf961eac1e",
    },
    ("equilibrium", "secondary_4bus"): {
        "bus_voltages.csv":
            "bbe032b91e7f7899959f0f24eb448cc98e51bda50024863896e53b7e729b86ca",
        "spectrum.csv":
            "48128ea07aa1aab93ff88926bde38f22669bf06c8a7372f191e67da8039664b9",
        "states.csv":
            "e459f9043716f1c1193691f9fa41811083cd9a1148031a29015524b029ede8e5",
    },
    ("equilibrium", "cf_step"): {
        "bus_voltages.csv":
            "8ada078eb8cc8a92c533dfb2358db01447fab8011bcae8379881fb175e0895df",
        "spectrum.csv":
            "c985183226e4ee837099c23cc5e73ef39caba9fa70e60bc096f30e1c96401002",
        "states.csv":
            "759072adeb13df7e9d3af1c3557c68fb34c057d1e89c37424006636b26d7fdf6",
    },
    ("equilibrium", "showcase"): {
        "bus_voltages.csv":
            "29ddceec3a885f0995b9fd4b82bcf75f8cef2531ed728f287da6a61c9c3bbd7f",
        "spectrum.csv":
            "c890acc46222c5f04dfa6068597776d6af3131b8e496f9d518433235ea788a75",
        "states.csv":
            "c0b68509c06609d72502659db18d63d2842faf2b788429f6d08dc2ae3ded4168",
    },
    ("continue", "two_bus"): {
        "bifurcations.csv":
            "87bf4e216994433ce39879e9a1d5b3423d1b3ddbbe2767c15e1951affdebc184",
        "branch.csv":
            "1c240182d484de5e1ff1ee5f0df7ac8daacdbb94c8e315177d90b63d0c1a2d93",
    },
    ("continue", "gfl_feeder"): {
        "bifurcations.csv":
            "2175f820760e447d441ef721d2fd3c8936380eae8261144cac4ac73563b181ad",
        "branch.csv":
            "1f7f586b5cd84ed4afb6c11fbef84dc0ec2eb0193ae79845d15ff137ffebe675",
    },
    ("continue", "showcase"): {
        "bifurcations.csv":
            "17df0819125b1e39de702d124deab20596e3182e79acc48b541a418776ed0afd",
        "branch.csv":
            "772752da4a91d31e0a7b48feca89a1497ec2b5ebd5c87f076c64a0367f99b7b3",
    },
    ("boundary2d", "two_bus"): {
        "boundary.csv":
            "72984fcae0a80dc1f1c7fa3f6d1e61697773ce79e2c53575b71aab63d65cecef",
    },
    ("simulate", "showcase"): {
        "trajectory.csv":
            "4f9b26bf64ec6a14b00848c161b437a2f1421169a2c12a4a1ef64af07f5f26b1",
    },
    ("simulate", "gfl_feeder"): {
        "trajectory.csv":
            "02d17bf20c8ebe9d7abc95ae0e848f68214b48c171ea3b4a79353299361a863a",
    },
    ("cf", "cf_step"): {
        "cf.csv":
            "aa3fe688bbdd94f6470e91fcef7a95d5c807812ad97abba26e0a9816ca1cda8c",
    },
    ("secondary", "secondary_4bus"): {
        "secondary_gains.csv":
            "14a2d844ac3519253c27b189d90fc786384cfd5ff062758bd71c56550d46fe2d",
        "secondary_voltages.csv":
            "6e4088bc43237587e679b86d68be7a554b4b37b9a4f9d2175668deb22f74ceca",
    },
}


@pytest.mark.parametrize("command, scenario", list(GOLDEN),
                         ids=lambda value: value)
def test_csv_artifacts_keep_their_bytes(command, scenario, tmp_path):
    rc = run_command([command, "--scenario",
                      str(SCENARIO_DIR / f"{scenario}.json"),
                      "--out", str(tmp_path), "--quiet"])
    assert rc == EXIT_OK
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.glob("*.csv"))}
    assert digests == GOLDEN[command, scenario]
