#!/usr/bin/env sh
# Regenerates the paper figures as PNG plots.
#
#   tools/plot_figures.sh [build-dir] [out-dir]
#
# Runs each of the paper's sweep figures through bench_campaign with
# --gnuplot, then renders each emitted .dat with gnuplot (if installed).
# Each data file is one figure panel; columns are algorithms, rows are
# network sizes.

set -eu
BUILD=${1:-build}
OUT=${2:-plots}
mkdir -p "$OUT"
cd "$OUT"

bin="../$BUILD/bench/bench_campaign"
[ -x "$bin" ] || { echo "missing $bin (build first)"; exit 1; }
for fig in fig10_timing fig11_selection fig12_space fig13_priority \
           fig14_static fig15_first_receipt fig16_backoff; do
  echo "running $fig ..."
  "$bin" --figures "$fig" --runs 200 --gnuplot "$fig" > "$fig.txt"
done

if ! command -v gnuplot > /dev/null 2>&1; then
  echo "gnuplot not installed; .dat files left in $OUT"
  exit 0
fi

for dat in *.dat; do
  png="${dat%.dat}.png"
  cols=$(awk 'NR==2 {print NF; exit}' "$dat")
  {
    echo "set terminal pngcairo size 800,600"
    echo "set output '$png'"
    echo "set key top left"
    echo "set xlabel 'Number of nodes'"
    echo "set ylabel 'Number of forward nodes'"
    echo "set title '$(head -1 "$dat" | sed 's/^# //')'"
    printf "plot"
    i=2
    while [ "$i" -le "$cols" ]; do
      name=$(head -2 "$dat" | tail -1 | awk -v c="$i" '{print $(c)}')
      [ "$i" -gt 2 ] && printf ","
      printf " '%s' using 1:%s with linespoints title '%s'" "$dat" "$i" "$name"
      i=$((i + 1))
    done
    echo
  } | gnuplot
  echo "wrote $OUT/$png"
done
