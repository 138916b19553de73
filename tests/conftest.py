"""The toy model the tests share, as config fields and as ``--set`` flags."""

import json

TOY = {"n_points": 128, "d": 16, "d_h": 32, "seq_len": 4, "cont_width": 16,
       "k_max": [8, 8, 8]}
TOY_MODEL_SETS = [flag for key, value in TOY.items()
                  for flag in ("--set", f"model.{key}={json.dumps(value)}")]
