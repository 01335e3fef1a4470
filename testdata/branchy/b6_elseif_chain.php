<?php
$r0 = $_GET['lang'];
$r1 = $_POST['msg'];
if ($c == 1) {
    $r0 = $r0 . '-en';
} elseif ($c == 2) {
    $r0 = $r0 . '-de';
} elseif ($c == 3) {
    $r1 = htmlspecialchars($r1);
} elseif ($c == 4) {
    $r0 = htmlspecialchars($r0);
} elseif ($c == 5) {
    $r1 = $r1 . '-fr';
} elseif ($c == 6) {
    $r0 = $r0 . '-it';
} elseif ($c == 7) {
    $r1 = $r1 . '-es';
} elseif ($c == 8) {
    $r0 = $r0 . '-nl';
} elseif ($c == 9) {
    $r1 = $r1 . '-pt';
} elseif ($c == 10) {
    $r0 = $r0 . '-sv';
} else {
    $r1 = $r1 . '-da';
}
if ($d == 1) {
    $r1 = $r1 . '!';
} else {
    $r1 = htmlspecialchars($r1);
}
echo $r0;
mysql_query("SELECT v FROM t0 WHERE k='" . $r0 . "'");
echo '<p>' . $r1 . '</p>';
echo $r1;
?>
