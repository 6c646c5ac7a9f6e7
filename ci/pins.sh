#!/usr/bin/env bash
# The sha256 pins of dqc's output: each command's bytes must hash to the
# value beside it.  DQC is the command to run, the installed console
# script "dqc" by default; from src, run every pin on the source tree
# with
#
#     DQC="python3 -m dqc" bash ../ci/pins.sh
#
# The outputs go to a temporary directory, removed on exit.  The
# directory the script starts in stays importable there, as python -m
# puts it on sys.path.  Runs for some minutes; classify --p 7 --n 3 is
# the longest step.
set -e
DQC=${DQC:-dqc}
export PYTHONPATH="$PWD${PYTHONPATH:+:$PYTHONPATH}"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
$DQC verify --p 3 --n 2
$DQC verify --p 7 --n 2 > v.json
echo "1437bacdd232ca6b5eb99b8db95b3cc5d9f44a070a11e7dae35c764979252eb4  v.json" | sha256sum -c
# the n = 3 report carries the census's Unentangled count; its
# 17,496 prefixes start a pool of two workers
$DQC verify --p 3 --n 3 --threads 1 > v33.json
echo "dd83be105636ee40965b350c2804de35ce5cc084c8a4ce5d1a4d267153833290  v33.json" | sha256sum -c
$DQC verify --p 3 --n 3 --threads 2 > v33-2.json
echo "dd83be105636ee40965b350c2804de35ce5cc084c8a4ce5d1a4d267153833290  v33-2.json" | sha256sum -c
$DQC verify --p-list 3,7 --n-max 2 > vgrid.json
echo "3877efe69e1356054470aaee106ed43efdb7e75a233ce3710eba19240b00aad3  vgrid.json" | sha256sum -c
$DQC verify --p 19 --n 4 --budget 1000 > vb.json
echo "48e33cea6c9f18668a8f4c3d212531991a92bb2902c6079ceb94a78003b0ca8a  vb.json" | sha256sum -c
# D = 16,384: the fixed checks alone (a 62,824-byte report), which
# must cost O(D) steps; the census is over budget and skipped
$DQC verify --p 3 --n 14 > v314.json
echo "0f5626870e40caac404e1284ed1e4ed60ce33a0c2f81c3db57a78838b9a8a376  v314.json" | sha256sum -c
# D = 32,768 under a 256 MB address-space cap: the fixed checks
# must hold O(D) bits, not O(D^2) (about 23 MB of RSS)
(ulimit -v 262144; $DQC verify --p 3 --n 15 > v315.json)
echo "c73fbc23973eca734ebbf19f8e04ba740c964a670e23ed5f0602c5de847039e1  v315.json" | sha256sum -c
$DQC classify --p 7 --n 2 --out c.csv
echo "7f68c75e6dca53146bd40c16364ac6f84113f8997f719f6f98b49597428d84a6  c.csv" | sha256sum -c
$DQC classify --p-list 3,7 --n-max 2 --out multi.csv
echo "e855d88116f34577fa089cbcedc0f0a4b935cd12f9456a5a547a80c54491996d  multi.csv" | sha256sum -c
$DQC classify --p 3 --n 2 --format json --out c.json
echo "08fe3fb640320890d1c3ffcfbed8f5c4ac8a5c41efa30eeac83a3f4f05aac827  c.json" | sha256sum -c
$DQC classify --p-list 3,7 --n 1 --format json --out c1.json
echo "46570a310a518237c6765d7d6ceeefc5c9f78e2f49b8b9e975db8e07a4704e9b  c1.json" | sha256sum -c
$DQC classify --p 3 --n 1 --out - > c31.csv
echo "972fda521863d7eeddcb5d632e08549ef495e1621bd131e475b5b453fa1c8057  c31.csv" | sha256sum -c
$DQC classify --p 3 --n 3 > c33.txt
echo "4ea74989f3637f723df2b1c20a1a265111c638b844771133409a47e08ee3086a  c33.txt" | sha256sum -c
# rows built per prefix from the row cache, hashed from the pipe
# (the first is 219 MB with n = 3 keys, 11-22 s)
$DQC classify --p 3 --n 3 --out - | sha256sum | grep -qx "f00aa3dc45d52177dc612b592498b95aa652d685d1cde626e91c974e02192368  -"
# 66 MB whose walk evicts row keys and asks for them again most often
$DQC classify --p 11 --n 2 --out - | sha256sum | grep -qx "1d4aef9ba3ff522f6124b9e3b1617a7253935a923ec4b11d33c028ce90f2f666  -"
$DQC classify --p 7 --n 2 --format json --out - | sha256sum | grep -qx "5e8bae995ef62d9daed3f2b219ad79940434b9d20c3cf804122b8ddb419d2646  -"
$DQC enumerate --p 7 --n 2 --class irreducible | sha256sum | grep -qx "57c5886db9a448d04ab76b9bb7bcdc02a4f7bb9b60254c2f9d12269e536d9054  -"
$DQC enumerate --p 7 --n 2 --format json | sha256sum | grep -qx "1b007a9ea6ba29419994b742a1208b7b818b7a9c4465e044601b9ae52c016261  -"
# the zero class, whose prefixes complete on the fiber of norm 0
# alone or on a whole circle
$DQC enumerate --p 7 --n 2 --class zero | sha256sum | grep -qx "e9456d065c653285bce3f224b04e27d3bb49ad46efee27503398dee0ef08be0d  -"
# JSON over several cells: n = 1's one empty parent, then the
# n = 2 groups, with the separators between cells
$DQC classify --p-list 3,7 --n-max 2 --format json --out - | sha256sum | grep -qx "9c305672303fe114e67e3385aa1f424a551e1e16eb94f98eda4e27e3a85d1ea1  -"
$DQC enumerate --p-list 3,7 --n-max 2 --class irreducible --format json | sha256sum | grep -qx "897e34171aa40a338475b7583e26b540531f8889e72eda020a0c45e29324d383  -"
# p=11 and p=19 censuses walk 132 and 380 prefixes, below the
# 4,000 from which a pool starts, so --threads 2 runs inline too
# and must write the bytes of --threads 1
$DQC classify --p-list 11,19 --n 2 --threads 2 > c1119.txt
echo "7a66f2c459eb1576830b51249733b909ecef1b91851911ea6c6e4611653ccb42  c1119.txt" | sha256sum -c
$DQC classify --p-list 11,19 --n 2 --threads 1 > c1119-1.txt
cmp c1119.txt c1119-1.txt
$DQC verify --p-list 11,19 --n 2 --threads 2 > v1119.json
echo "477929dff19692643e2d3e993deae050c01402d1b73fca705c7702fe6f26f2f4  v1119.json" | sha256sum -c
$DQC verify --p-list 11,19 --n 2 --threads 1 > v1119-1.json
cmp v1119.json v1119-1.json
# the p=3 n=3 census walks 17,496 prefixes, enough to start a pool
# of two workers; one worker must write the same bytes
$DQC classify --p 3 --n 3 --threads 2 > c33-2.txt
echo "4ea74989f3637f723df2b1c20a1a265111c638b844771133409a47e08ee3086a  c33-2.txt" | sha256sum -c
$DQC classify --p 3 --n 3 --threads 1 > c33-1.txt
echo "4ea74989f3637f723df2b1c20a1a265111c638b844771133409a47e08ee3086a  c33-1.txt" | sha256sum -c
# the p=7 n=3 census, 16,470,860 prefixes (about 30 s on two
# workers): the only check of the isotropic scale (p - 1) (p + 1)**2
# past p = 3
$DQC classify --p 7 --n 3 | sha256sum | grep -qx "fbb04d21d74daa1a70084623a7c164e23afa3d8237fed0acafa555231328144e  -"
$DQC bloch --p 7 > bloch.csv
echo "4509a57ada442e20522787e163aeaded3de8fb5b40ba2b4f43c0e8aa48c8e91d  bloch.csv" | sha256sum -c
$DQC bloch --p 7 --format json > bloch.json
echo "9948680fdd9b921c2d8f0ce7182f734e5e9134ab6d3c5edb0c87edb595aca2e8  bloch.json" | sha256sum -c
# 44,310 points read off the sphere, which the Hopf images of the
# canonical walk must match
$DQC bloch --p 211 | sha256sum | grep -qx "24b84679baa58fcdc1c69d4f55a92a2b19cf7970b5e737c4ad967f969d2c7c96  -"
# an n = 1 census: its one-prefix walk reads no p**2 table, but it
# is charged their size, p**2 prefixes
$DQC verify --p 1019 --n 1 | sha256sum | grep -qx "a58332d41952b5deec17a546d75bb055757d9b63f8145e1c9f2dc352f6c340e5  -"
# an n = 2 verify that builds no table: counts by fiber sizes and a
# census over fiber minima, 253,512 prefixes (about 2 s)
$DQC verify --p 503 --n 2 | sha256sum | grep -qx "938b4c380d5e424ab0ae27a3ae4224a8d5c583a9c8b327d61b41f2b9ba5ded87  -"
# p=3 n=13: counts of up to 7,818 digits, past Python's default
# int-to-str limit, which dqc leaves as it is
$DQC tables --p 3 --n 13 | sha256sum | grep -qx "702fb3ce4f570e31ce9e856fe1532c006bec03edd9bda25fe752059418a43912  -"
$DQC tables --p 3 --n 13 --format json | sha256sum | grep -qx "dc942fd642e11d2793951974aefe7647717bae98d7ed745ea1e2da8b1d2632f3  -"
$DQC tables --format json > tables.json
echo "03b5e4bd93c4e58bbcf8df713a09f73543cc9ee2e459ee82dd03f9bb2288ea58  tables.json" | sha256sum -c
$DQC enumerate --p 3 --n 2 --format json > unit.json
echo "19cf1ab5453ac7bd94c4f413566c8267c2da07bf986e202692491b025008b6e3  unit.json" | sha256sum -c
$DQC enumerate --p 3 --n 2 --class irreducible > irreducible.csv
echo "a7f5e9f25e6bfacc43965a802924f5f8f7c0bf5755a50d24dc525fb63470a94f  irreducible.csv" | sha256sum -c
$DQC enumerate --p 3 --n 2 2>err.txt | head -n 1
test ! -s err.txt
code=0; $DQC verify --p 3 --n 1 --format csv 2>usage.txt || code=$?
test "$code" -eq 2
grep -q "usage: dqc verify" usage.txt
