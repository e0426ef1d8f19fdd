#!/bin/sh
# The mutant gate. Each *.patch in this directory is a one- or two-line
# change to lib, named for the rule it breaks. For each, copy the checkout, apply
# the patch, build, and run the paragraph, properties, zerocopy,
# protocol and store suites: they must fail. A patch that no longer
# applies or builds, or that every suite passes, fails the gate and is
# named.
#
#   sh test/mutants/run.sh        # from the repository root
#
# Copies go under $TMPDIR (default /tmp); each is removed after its run.
set -u
root=$(pwd)
status=0
for patch in "$root"/test/mutants/*.patch; do
  name=$(basename "$patch" .patch)
  work=$(mktemp -d)
  tar -C "$root" --exclude=./_build --exclude=./.git -cf - . \
    | tar -C "$work" -xf -
  if ! (cd "$work" && git apply "$patch"); then
    echo "mutant $name: patch does not apply"
    status=1
  elif ! (cd "$work" && dune build test/test_main.exe); then
    echo "mutant $name: does not build"
    status=1
  else
    failed=$(cd "$work" \
      && for suite in paragraph properties zerocopy protocol store; do
           ./_build/default/test/test_main.exe test "$suite" --color=never \
             2>&1 | sed -nE 's/^[ >]+\[FAIL\] +//p'
         done | sort -u)
    if [ -z "$failed" ]; then
      echo "mutant $name: SURVIVED"
      status=1
    else
      echo "mutant $name: killed by"
      echo "$failed"
    fi
  fi
  rm -rf "$work"
done
exit $status
