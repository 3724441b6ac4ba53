"""``python -m flaketriage``: the command line, without installing the package."""
from .cli import main_entry

if __name__ == "__main__":
    main_entry()
