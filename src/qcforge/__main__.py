from .cli import main
if __name__ == "__main__":  # ``python -m qcforge``, run by the tests as a subprocess
    raise SystemExit(main())
