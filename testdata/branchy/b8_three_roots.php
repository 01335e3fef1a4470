<?php
$r0 = $_GET['a'];
if ($c0_0 == 1) {
    $r0 = $r0 . '-0';
} else {
    $r0 = htmlspecialchars($r0);
}
if ($c0_1 == 2) {
    $r0 = $r0 . '-1';
} else {
    $r0 = htmlspecialchars($r0);
}
echo $r0;
mysql_query("SELECT v FROM t0 WHERE k='" . $r0 . "'");
$r1 = $_POST['b'];
if ($c1_0 == 3) {
    $r1 = $r1 . '-0';
} else {
    $r1 = htmlspecialchars($r1);
}
if ($c1_1 == 4) {
    $r1 = $r1 . '-1';
} else {
    $r1 = htmlspecialchars($r1);
}
echo '<p>' . $r1 . '</p>';
mysql_query("SELECT v FROM t1 WHERE k='" . $r1 . "'");
$r2 = $_COOKIE['c'];
if ($c2_0 == 5) {
    $r2 = $r2 . '-0';
} else {
    $r2 = htmlspecialchars($r2);
}
if ($c2_1 == 6) {
    $r2 = $r2 . '-1';
} else {
    $r2 = htmlspecialchars($r2);
}
if ($c2_3 == 8) {
    $r2 = $r2 . '-3';
} else {
    $r2 = htmlspecialchars($r2);
}
echo $r2;
mysql_query("SELECT v FROM t2 WHERE k='" . $r2 . "'");
?>
