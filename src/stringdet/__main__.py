"""`python -m stringdet ...`: the `stringdet` command line without installing."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
