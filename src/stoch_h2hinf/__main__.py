"""``python -m stoch_h2hinf``: the same entry point as the stoch-h2hinf script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
